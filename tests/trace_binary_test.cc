/**
 * @file
 * Tests for the binary trace format: round trips, compactness,
 * corruption handling, and format auto-detection.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "topo/obs/metrics.hh"
#include "topo/trace/trace_binary.hh"
#include "topo/trace/trace_io.hh"
#include "topo/trace/trace_mmap.hh"
#include "topo/util/error.hh"
#include "topo/util/rng.hh"
#include "test_support.hh"

namespace topo
{
namespace
{

Trace
randomTrace(std::size_t procs, std::size_t runs, std::uint64_t seed)
{
    Trace trace(procs);
    Rng rng(seed);
    for (std::size_t i = 0; i < runs; ++i) {
        const ProcId proc = static_cast<ProcId>(rng.nextBelow(procs));
        const std::uint32_t offset =
            static_cast<std::uint32_t>(rng.nextBelow(4096));
        const std::uint32_t length =
            1 + static_cast<std::uint32_t>(rng.nextBelow(512));
        trace.append(proc, offset, length);
    }
    return trace;
}

TEST(BinaryTrace, RoundTrip)
{
    const Trace trace = randomTrace(50, 5000, 1);
    std::stringstream ss;
    writeBinaryTrace(ss, trace);
    const Trace back = readBinaryTrace(ss);
    ASSERT_EQ(back.size(), trace.size());
    EXPECT_EQ(back.procCount(), trace.procCount());
    for (std::size_t i = 0; i < trace.size(); ++i)
        EXPECT_EQ(back.events()[i], trace.events()[i]);
}

TEST(BinaryTrace, EmptyTraceRoundTrip)
{
    const Trace trace(7);
    std::stringstream ss;
    writeBinaryTrace(ss, trace);
    const Trace back = readBinaryTrace(ss);
    EXPECT_EQ(back.size(), 0u);
    EXPECT_EQ(back.procCount(), 7u);
}

TEST(BinaryTrace, MuchSmallerThanText)
{
    // Locality-heavy trace (like real programs): the delta coding
    // should put the binary form well under half of the text form.
    Trace trace(100);
    Rng rng(2);
    ProcId current = 0;
    for (int i = 0; i < 20000; ++i) {
        if (rng.nextBool(0.2))
            current = static_cast<ProcId>(rng.nextBelow(100));
        trace.append(current, 0, 64);
    }
    std::stringstream text, binary;
    writeTrace(text, trace);
    writeBinaryTrace(binary, trace);
    EXPECT_LT(binary.str().size(), text.str().size() / 2);
}

TEST(BinaryTrace, DetectsCorruption)
{
    {
        std::stringstream ss("nope");
        EXPECT_THROW(readBinaryTrace(ss), TopoError);
    }
    {
        // Valid header claiming runs that are not present.
        const Trace trace = randomTrace(4, 100, 3);
        std::stringstream ss;
        writeBinaryTrace(ss, trace);
        std::string data = ss.str();
        data.resize(data.size() / 2); // truncate
        std::stringstream cut(data);
        EXPECT_THROW(readBinaryTrace(cut), TopoError);
    }
    {
        // Out-of-range procedure delta.
        std::stringstream ss;
        ss.write("TOPB", 4);
        ss.put(1);  // version
        ss.put(2);  // proc_count
        ss.put(1);  // run_count
        ss.put(8);  // zigzag(4): proc 4 of 2
        ss.put(0);  // offset
        ss.put(1);  // length
        EXPECT_THROW(readBinaryTrace(ss), TopoError);
    }
}

TEST(BinaryTrace, FileRoundTripAndAutoDetect)
{
    const Trace trace = randomTrace(20, 1000, 4);
    const TestTempDir tmp;
    const std::string bin_path = tmp.file("trace_binary_test.tpb");
    const std::string txt_path = tmp.file("trace_binary_test.txt");
    saveBinaryTrace(bin_path, trace);
    saveTrace(txt_path, trace);

    const Trace from_bin = loadAnyTrace(bin_path);
    const Trace from_txt = loadAnyTrace(txt_path);
    ASSERT_EQ(from_bin.size(), trace.size());
    ASSERT_EQ(from_txt.size(), trace.size());
    for (std::size_t i = 0; i < trace.size(); i += 37) {
        EXPECT_EQ(from_bin.events()[i], trace.events()[i]);
        EXPECT_EQ(from_txt.events()[i], trace.events()[i]);
    }
    std::remove(bin_path.c_str());
    std::remove(txt_path.c_str());
    EXPECT_THROW(loadBinaryTrace("/nonexistent/x.tpb"), TopoError);
}

TEST(MmapTrace, MappedAndStreamLoadsAgree)
{
    if (!mmapSupported())
        GTEST_SKIP() << "no mmap on this platform";
    const Trace trace = randomTrace(30, 3000, 7);
    const TestTempDir tmp;
    const std::string path = tmp.file("trace_mmap_test.tpb");
    saveBinaryTrace(path, trace);

    // Private registry so the counter assertions see only this test.
    MetricsRegistry metrics;
    MetricsScope scope(metrics);

    const Trace mapped = loadBinaryTrace(path);
    EXPECT_EQ(metrics.counter("trace.mmap_loads").value(), 1u);
    std::stringstream bytes; // the file's bytes, as an in-memory stream
    writeBinaryTrace(bytes, trace);
    const Trace streamed = readBinaryTrace(bytes);
    EXPECT_EQ(metrics.counter("trace.mmap_loads").value(), 1u);

    ASSERT_EQ(mapped.size(), trace.size());
    ASSERT_EQ(streamed.size(), trace.size());
    EXPECT_EQ(mapped.procCount(), streamed.procCount());
    for (std::size_t i = 0; i < trace.size(); ++i) {
        ASSERT_EQ(mapped.events()[i], trace.events()[i]);
        ASSERT_EQ(streamed.events()[i], trace.events()[i]);
    }

    // The auto-detecting loader takes the mapped path for binary magic.
    const Trace any = loadAnyTrace(path);
    EXPECT_EQ(metrics.counter("trace.mmap_loads").value(), 2u);
    EXPECT_EQ(any.size(), trace.size());
    std::remove(path.c_str());
}

TEST(MmapTrace, TextTracesFallBackToTheStreamParser)
{
    if (!mmapSupported())
        GTEST_SKIP() << "no mmap on this platform";
    const Trace trace = randomTrace(10, 200, 8);
    const TestTempDir tmp;
    const std::string path = tmp.file("trace_mmap_test.txt");
    saveTrace(path, trace);

    MetricsRegistry metrics;
    MetricsScope scope(metrics);
    const Trace back = loadAnyTrace(path);
    // The line-oriented parser reads the mapped bytes; only binary
    // decodes count as mapped loads.
    EXPECT_EQ(metrics.counter("trace.mmap_loads").value(), 0u);
    ASSERT_EQ(back.size(), trace.size());
    for (std::size_t i = 0; i < trace.size(); i += 17)
        EXPECT_EQ(back.events()[i], trace.events()[i]);
    std::remove(path.c_str());
}

TEST(MmapTrace, MapFailureFallsBackToTheStreamError)
{
    // A missing file cannot map; the read fallback reports the open
    // error.
    try {
        loadBinaryTrace("/nonexistent/x.tpb");
        ADD_FAILURE() << "expected a TopoError";
    } catch (const TopoError &err) {
        EXPECT_EQ(err.code(), ErrCode::kUser);
        EXPECT_NE(std::string(err.what()).find("cannot open"),
                  std::string::npos);
    }
    EXPECT_FALSE(
        MappedFile::tryMap("/nonexistent/x.tpb").has_value());

    if (!mmapSupported())
        return;
    // An empty file maps (zero-length) and fails like an empty stream:
    // too short for any magic.
    const TestTempDir tmp;
    const std::string path = tmp.file("trace_mmap_empty.tpb");
    { std::ofstream os(path, std::ios::binary); }
    std::optional<MappedFile> map = MappedFile::tryMap(path);
    ASSERT_TRUE(map.has_value());
    EXPECT_EQ(map->size(), 0u);
    EXPECT_THROW(loadBinaryTrace(path), TopoError);
    std::istringstream empty("");
    EXPECT_THROW(readBinaryTrace(empty), TopoError);
    std::remove(path.c_str());
}

TEST(BinaryTrace, LargeIdsAndValues)
{
    // Exercise multi-byte varints.
    Trace trace(100000);
    trace.append(99999, 4000000000u, 1000000u);
    trace.append(0, 0, 1);
    std::stringstream ss;
    writeBinaryTrace(ss, trace);
    const Trace back = readBinaryTrace(ss);
    EXPECT_EQ(back.events()[0].offset, 4000000000u);
    EXPECT_EQ(back.events()[0].length, 1000000u);
    EXPECT_EQ(back.events()[1].proc, 0u);
}

} // namespace
} // namespace topo
