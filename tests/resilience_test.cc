/**
 * @file
 * Tests for the resilience layer: CRC32, fault-plan determinism, the
 * hardened v2 trace format (exhaustive truncation salvage), checkpoint
 * persistence, checkpoint/resume bit-equality, and the unknown-option
 * rejection that backs the stable CLI exit codes.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <initializer_list>
#include <sstream>

#include "topo/cache/simulate.hh"
#include "topo/obs/log.hh"
#include "topo/resilience/resilience.hh"
#include "topo/trace/fetch_stream.hh"
#include "topo/trace/trace_binary.hh"
#include "topo/trace/trace_io.hh"
#include "topo/trace/trace_mmap.hh"
#include "topo/util/error.hh"
#include "topo/util/options.hh"
#include "topo/util/rng.hh"
#include "test_support.hh"

namespace topo
{
namespace
{

/** Run a statement and return the TopoError code it throws. */
template <typename Fn>
ErrCode
codeOf(Fn &&fn)
{
    try {
        fn();
    } catch (const TopoError &err) {
        return err.code();
    }
    ADD_FAILURE() << "expected a TopoError";
    return ErrCode::kInternal;
}

Trace
randomTrace(std::size_t procs, std::size_t runs, std::uint64_t seed)
{
    Trace trace(procs);
    Rng rng(seed);
    for (std::size_t i = 0; i < runs; ++i) {
        trace.append(static_cast<ProcId>(rng.nextBelow(procs)),
                     static_cast<std::uint32_t>(rng.nextBelow(4096)),
                     1 + static_cast<std::uint32_t>(rng.nextBelow(512)));
    }
    return trace;
}

TEST(Crc32, KnownVectorAndIncremental)
{
    // The canonical CRC-32 check value.
    EXPECT_EQ(crc32(std::string("123456789")), 0xCBF43926u);
    EXPECT_EQ(crc32(std::string("")), 0x00000000u);
    // Incremental updates must match the one-shot digest.
    const std::string data = "The quick brown fox jumps over the lazy dog";
    std::uint32_t running = 0;
    for (std::size_t i = 0; i < data.size(); i += 7) {
        const std::size_t n = std::min<std::size_t>(7, data.size() - i);
        running = crc32Update(running, data.data() + i, n);
    }
    EXPECT_EQ(running, crc32(data));
    // Any single-bit flip changes the digest.
    std::string flipped = data;
    flipped[5] = static_cast<char>(flipped[5] ^ 0x10);
    EXPECT_NE(crc32(flipped), crc32(data));
}

TEST(FaultPlan, ParsesTheSpecGrammar)
{
    FaultPlan plan =
        FaultPlan::parse("read_short@0.25,bitflip@1e-3:42");
    EXPECT_TRUE(plan.armed(FaultKind::kReadShort));
    EXPECT_TRUE(plan.armed(FaultKind::kBitflip));
    EXPECT_FALSE(plan.armed(FaultKind::kThrowIo));
    EXPECT_TRUE(plan.any());
    EXPECT_FALSE(FaultPlan().any());

    EXPECT_EQ(codeOf([] { FaultPlan::parse("nonsense@0.1"); }),
              ErrCode::kUser);
    EXPECT_EQ(codeOf([] { FaultPlan::parse("bitflip@1.5"); }),
              ErrCode::kUser);
    EXPECT_EQ(codeOf([] { FaultPlan::parse("bitflip"); }),
              ErrCode::kUser);
    EXPECT_EQ(codeOf([] { FaultPlan::parse("bitflip@x"); }),
              ErrCode::kUser);
}

TEST(FaultPlan, DrawsAreDeterministicPerKind)
{
    // Same seed -> same fire sequence; the streams of different kinds
    // are independent, so consuming one must not perturb the other.
    FaultPlan a, b;
    a.arm(FaultKind::kBitflip, 0.3, 77);
    b.arm(FaultKind::kBitflip, 0.3, 77);
    b.arm(FaultKind::kThrowIo, 0.5, 5);
    int fired = 0;
    for (int i = 0; i < 2000; ++i) {
        if (i % 3 == 0)
            b.fire(FaultKind::kThrowIo); // interleave the other stream
        const bool fa = a.fire(FaultKind::kBitflip);
        ASSERT_EQ(fa, b.fire(FaultKind::kBitflip)) << "draw " << i;
        fired += fa ? 1 : 0;
    }
    // p=0.3 over 2000 draws: loose sanity band, not a statistics test.
    EXPECT_GT(fired, 400);
    EXPECT_LT(fired, 800);
    // Unarmed kinds never fire and never advance.
    EXPECT_FALSE(a.fire(FaultKind::kReadShort));
}

TEST(FaultPlan, HelpersAreInertWithoutAPlan)
{
    clearFaultPlan();
    EXPECT_EQ(activeFaultPlan(), nullptr);
    EXPECT_FALSE(faultArmed(FaultKind::kThrowIo));
    EXPECT_EQ(faultMaybeShortenRead("test", 100u), 100u);
    char byte = 0x5A;
    faultMaybeCorrupt("test", &byte, 1);
    EXPECT_EQ(byte, 0x5A);
    faultMaybeThrowIo("test"); // must not throw
}

TEST(FaultPlan, HelpersFireDeterministically)
{
    FaultPlan plan;
    plan.arm(FaultKind::kThrowIo, 1.0, 1);
    plan.arm(FaultKind::kReadShort, 1.0, 2);
    plan.arm(FaultKind::kBitflip, 1.0, 3);
    installFaultPlan(plan);
    EXPECT_EQ(codeOf([] { faultMaybeThrowIo("test.site"); }),
              ErrCode::kCorrupt);
    EXPECT_LT(faultMaybeShortenRead("test", 100u), 100u);
    char byte = 0;
    faultMaybeCorrupt("test", &byte, 1);
    EXPECT_NE(byte, 0); // exactly one bit flipped
    clearFaultPlan();
}

TEST(BinaryTraceV2, MultiChunkRoundTrip)
{
    const Trace trace = randomTrace(40, 1000, 9);
    TraceWriteOptions wopts;
    wopts.records_per_chunk = 16; // force ~63 chunks
    std::stringstream ss;
    writeBinaryTrace(ss, trace, wopts);
    const Trace back = readBinaryTrace(ss);
    ASSERT_EQ(back.size(), trace.size());
    for (std::size_t i = 0; i < trace.size(); ++i)
        EXPECT_EQ(back.events()[i], trace.events()[i]);
}

TEST(BinaryTraceV2, ReadsVersion1Streams)
{
    // Hand-crafted v1 stream: no chunking, no CRC.
    std::stringstream ss;
    ss.write("TOPB", 4);
    ss.put(1); // version
    ss.put(3); // proc_count
    ss.put(2); // run_count
    ss.put(2); // zigzag(+1): proc 1
    ss.put(7); // offset
    ss.put(5); // length
    ss.put(1); // zigzag(-1): proc 0
    ss.put(0); // offset
    ss.put(9); // length
    const Trace back = readBinaryTrace(ss);
    ASSERT_EQ(back.size(), 2u);
    EXPECT_EQ(back.events()[0].proc, 1u);
    EXPECT_EQ(back.events()[0].offset, 7u);
    EXPECT_EQ(back.events()[1].proc, 0u);
    EXPECT_EQ(back.events()[1].length, 9u);
}

TEST(BinaryTraceV2, CrcCatchesEverySingleBitFlip)
{
    const Trace trace = randomTrace(10, 200, 5);
    std::stringstream ss;
    writeBinaryTrace(ss, trace);
    const std::string clean = ss.str();
    // Flip one bit at a spread of positions across the image; strict
    // reads must throw kCorrupt, never return quietly wrong data.
    // (Flips inside the 6-byte magic/header can also surface as kUser
    // "not a binary trace"; anything after it must be kCorrupt.)
    for (std::size_t pos = 6; pos < clean.size();
         pos += 1 + pos / 16) {
        for (int bit : {0, 3, 7}) {
            std::string bad = clean;
            bad[pos] =
                static_cast<char>(bad[pos] ^ (1 << bit));
            if (bad == clean)
                continue;
            std::stringstream in(bad);
            try {
                const Trace back = readBinaryTrace(in);
                // A flip in a varint length field can keep the CRC
                // window consistent only if the decode still matches;
                // equality with the original is the only acceptable
                // non-throwing outcome.
                ASSERT_EQ(back.size(), trace.size())
                    << "undetected corruption at byte " << pos;
            } catch (const TopoError &err) {
                EXPECT_EQ(err.code(), ErrCode::kCorrupt)
                    << "byte " << pos << " bit " << bit;
            }
        }
    }
}

TEST(BinaryTraceV2, EveryTruncationPointRecoversOrFailsCorrupt)
{
    Logger::global().setLevel(LogLevel::kOff); // silence salvage warns
    const std::size_t kRuns = 300;
    const Trace trace = randomTrace(20, kRuns, 6);
    TraceWriteOptions wopts;
    wopts.records_per_chunk = 16;
    std::stringstream ss;
    writeBinaryTrace(ss, trace, wopts);
    const std::string clean = ss.str();

    for (std::size_t keep = 0; keep < clean.size(); ++keep) {
        const std::string cut = clean.substr(0, keep);
        // Strict mode: every proper prefix is corrupt input.
        {
            std::stringstream in(cut);
            EXPECT_EQ(codeOf([&] { readBinaryTrace(in); }),
                      ErrCode::kCorrupt)
                << "strict read of " << keep << "/" << clean.size();
        }
        // Recover mode: either a salvaged prefix with exact loss
        // accounting, or (header damage) still a corrupt-input error.
        TraceRecovery report;
        TraceReadOptions ropts;
        ropts.recover = true;
        ropts.report = &report;
        std::stringstream in(cut);
        try {
            const Trace back = readBinaryTrace(in, ropts);
            EXPECT_TRUE(report.recovered) << "at " << keep;
            EXPECT_EQ(report.records_recovered, back.size());
            EXPECT_EQ(report.records_recovered + report.records_dropped,
                      kRuns)
                << "loss accounting at " << keep;
            // Salvage keeps a prefix: records must match the original.
            for (std::size_t i = 0; i < back.size(); ++i) {
                ASSERT_EQ(back.events()[i], trace.events()[i])
                    << "record " << i << " after cut at " << keep;
            }
        } catch (const TopoError &err) {
            // Only damage inside the 8-byte fixed header (magic,
            // version, proc_count, run_count varints) defeats
            // recovery: there is nothing to salvage without it.
            EXPECT_EQ(err.code(), ErrCode::kCorrupt) << "at " << keep;
            EXPECT_LT(keep, 8u)
                << "only header truncation may defeat recovery";
        }
    }
    // The complete image reads back without engaging salvage.
    TraceRecovery report;
    TraceReadOptions ropts;
    ropts.recover = true;
    ropts.report = &report;
    std::stringstream in(clean);
    const Trace back = readBinaryTrace(in, ropts);
    EXPECT_EQ(back.size(), kRuns);
    EXPECT_FALSE(report.recovered);
    EXPECT_EQ(report.records_dropped, 0u);
    Logger::global().setLevel(LogLevel::kOff);
}

TEST(BinaryTraceV2, RejectsResourceExhaustingHeaders)
{
    // A tiny file whose header promises absurd sizes must fail fast
    // on the clamps instead of attempting a huge allocation.
    auto craft = [](std::initializer_list<unsigned char> bytes) {
        std::string s("TOPB");
        for (unsigned char b : bytes)
            s.push_back(static_cast<char>(b));
        return s;
    };
    // proc_count varint ~2^35.
    const std::string huge_procs =
        craft({2, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01, 1});
    std::stringstream a(huge_procs);
    EXPECT_EQ(codeOf([&] { readBinaryTrace(a); }), ErrCode::kCorrupt);
    // Plausible counts but a chunk promising 2^30 records.
    const std::string huge_chunk =
        craft({2, 4, 10, 0x80, 0x80, 0x80, 0x80, 0x04, 1, 0, 0, 0, 0});
    std::stringstream b(huge_chunk);
    EXPECT_EQ(codeOf([&] { readBinaryTrace(b); }), ErrCode::kCorrupt);
}

TEST(MmapTraceResilience, SalvageParityWithTheStreamReader)
{
    // The mapped decoder must be bit-for-bit interchangeable with the
    // stream reader on damaged files too: same salvaged records, same
    // loss accounting, same strict-mode error class.
    if (!mmapSupported())
        GTEST_SKIP() << "no mmap on this platform";
    Logger::global().setLevel(LogLevel::kOff);
    const std::size_t kRuns = 300;
    const Trace trace = randomTrace(20, kRuns, 21);
    TraceWriteOptions wopts;
    wopts.records_per_chunk = 16;
    std::stringstream ss;
    writeBinaryTrace(ss, trace, wopts);
    const std::string clean = ss.str();
    const TestTempDir tmp;
    const std::string path = tmp.file("resilience_mmap_cut.tpb");

    for (std::size_t keep = 8; keep < clean.size();
         keep += 1 + keep / 8) {
        {
            std::ofstream os(path,
                             std::ios::binary | std::ios::trunc);
            os.write(clean.data(),
                     static_cast<std::streamsize>(keep));
        }
        // Strict mode: both paths reject the truncation as corrupt.
        for (const TraceMmapMode mode :
             {TraceMmapMode::kOn, TraceMmapMode::kOff}) {
            TraceReadOptions strict;
            strict.mmap = mode;
            EXPECT_EQ(codeOf([&] { loadBinaryTrace(path, strict); }),
                      ErrCode::kCorrupt)
                << "cut " << keep;
        }
        // Recover mode: identical salvage on both paths.
        auto salvage = [&](TraceMmapMode mode, TraceRecovery &report) {
            TraceReadOptions ropts;
            ropts.recover = true;
            ropts.report = &report;
            ropts.mmap = mode;
            return loadBinaryTrace(path, ropts);
        };
        TraceRecovery mapped_report, stream_report;
        const Trace mapped =
            salvage(TraceMmapMode::kOn, mapped_report);
        const Trace streamed =
            salvage(TraceMmapMode::kOff, stream_report);
        ASSERT_EQ(mapped.size(), streamed.size()) << "cut " << keep;
        for (std::size_t i = 0; i < mapped.size(); ++i) {
            ASSERT_EQ(mapped.events()[i], streamed.events()[i])
                << "record " << i << " cut " << keep;
        }
        EXPECT_EQ(mapped_report.recovered, stream_report.recovered);
        EXPECT_EQ(mapped_report.chunks_recovered,
                  stream_report.chunks_recovered)
            << "cut " << keep;
        EXPECT_EQ(mapped_report.records_recovered,
                  stream_report.records_recovered)
            << "cut " << keep;
        EXPECT_EQ(mapped_report.records_dropped,
                  stream_report.records_dropped)
            << "cut " << keep;
        EXPECT_EQ(mapped_report.records_recovered +
                      mapped_report.records_dropped,
                  kRuns)
            << "cut " << keep;
    }
    std::remove(path.c_str());
}

TEST(MmapTraceResilience, ArmedFaultPlanForcesTheStreamPath)
{
    // The stream reader hosts all trace-level injection hooks, so an
    // armed plan must route kAuto loads through it. throw_io at p=1
    // makes the routing observable: the stream header hook fires (and
    // throws) on the very first read, while the mapped decoder has no
    // hooks and reads the same clean file successfully.
    if (!mmapSupported())
        GTEST_SKIP() << "no mmap on this platform";
    const Trace trace = randomTrace(8, 200, 13);
    const TestTempDir tmp;
    const std::string path = tmp.file("resilience_mmap_fault.tpb");
    saveBinaryTrace(path, trace);

    FaultPlan plan;
    plan.arm(FaultKind::kThrowIo, 1.0, 1);
    installFaultPlan(plan);
    TraceReadOptions auto_opts; // kAuto
    EXPECT_FALSE(traceMmapEligible(auto_opts));
    EXPECT_EQ(codeOf([&] { loadBinaryTrace(path, auto_opts); }),
              ErrCode::kCorrupt);
    // Explicit kOn bypasses the plan check and decodes the mapping.
    TraceReadOptions pin_opts;
    pin_opts.mmap = TraceMmapMode::kOn;
    EXPECT_TRUE(traceMmapEligible(pin_opts));
    const Trace mapped = loadBinaryTrace(path, pin_opts);
    EXPECT_EQ(mapped.size(), trace.size());
    clearFaultPlan();

    // With the plan gone, kAuto maps again and agrees with the file.
    EXPECT_TRUE(traceMmapEligible(auto_opts));
    const Trace back = loadBinaryTrace(path, auto_opts);
    ASSERT_EQ(back.size(), trace.size());
    for (std::size_t i = 0; i < trace.size(); ++i)
        EXPECT_EQ(back.events()[i], trace.events()[i]);
    std::remove(path.c_str());
}

TEST(TextTrace, RecoverSalvagesTheValidLinePrefix)
{
    Logger::global().setLevel(LogLevel::kOff);
    std::stringstream ss("topo-trace v1 4\n"
                         "0 0 10\n"
                         "1 5 20\n"
                         "garbage line\n"
                         "2 0 30\n");
    {
        std::stringstream strict(ss.str());
        EXPECT_EQ(codeOf([&] { readTrace(strict); }), ErrCode::kCorrupt);
    }
    TraceRecovery report;
    TraceReadOptions ropts;
    ropts.recover = true;
    ropts.report = &report;
    const Trace back = readTrace(ss, ropts);
    EXPECT_EQ(back.size(), 2u);
    EXPECT_TRUE(report.recovered);
    EXPECT_EQ(report.records_recovered, 2u);
    EXPECT_EQ(report.records_dropped, 2u); // bad line + everything after
}

TEST(Checkpoint, FileRoundTripAndCorruptionDetection)
{
    SimCheckpoint ckpt;
    ckpt.fingerprint = 0xFEEDFACE12345678ULL;
    ckpt.cursor = 123456;
    ckpt.misses = 789;
    ckpt.cache_words = {1, 2, 3, 0xFFFFFFFFFFFFFFFFULL};
    ckpt.misses_by_proc = {4, 5, 6};
    const TestTempDir tmp;
    const std::string path = tmp.file("resilience_ckpt_test.bin");
    saveCheckpoint(path, ckpt);
    const SimCheckpoint back = loadCheckpoint(path);
    EXPECT_EQ(back.fingerprint, ckpt.fingerprint);
    EXPECT_EQ(back.cursor, ckpt.cursor);
    EXPECT_EQ(back.misses, ckpt.misses);
    EXPECT_EQ(back.cache_words, ckpt.cache_words);
    EXPECT_EQ(back.misses_by_proc, ckpt.misses_by_proc);

    // A flipped payload byte must be caught by the CRC.
    {
        std::ifstream is(path, std::ios::binary);
        std::ostringstream buf;
        buf << is.rdbuf();
        std::string bytes = buf.str();
        bytes[bytes.size() - 3] =
            static_cast<char>(bytes[bytes.size() - 3] ^ 0x40);
        std::ofstream os(path, std::ios::binary | std::ios::trunc);
        os.write(bytes.data(),
                 static_cast<std::streamsize>(bytes.size()));
    }
    EXPECT_EQ(codeOf([&] { loadCheckpoint(path); }), ErrCode::kCorrupt);
    std::remove(path.c_str());
    EXPECT_EQ(codeOf([&] { loadCheckpoint(path); }), ErrCode::kUser);
}

/** Pipeline fixture shared by the resume tests. */
struct SimFixture
{
    Program program{"resilience"};
    Trace trace{0};
    CacheConfig cache;

    explicit SimFixture(std::uint32_t assoc)
    {
        for (int i = 0; i < 24; ++i) {
            program.addProcedure("p" + std::to_string(i),
                                 200 + 64 * (i % 7));
        }
        // Runs must stay inside their procedure for FetchStream.
        trace = Trace(24);
        Rng rng(31);
        for (int i = 0; i < 20000; ++i) {
            const ProcId proc = static_cast<ProcId>(rng.nextBelow(24));
            const std::uint32_t size = program.proc(proc).size_bytes;
            const std::uint32_t offset =
                static_cast<std::uint32_t>(rng.nextBelow(size));
            const std::uint32_t length =
                1 + static_cast<std::uint32_t>(
                        rng.nextBelow(size - offset));
            trace.append(proc, offset, length);
        }
        cache.size_bytes = 2048;
        cache.line_bytes = 32;
        cache.associativity = assoc;
    }
};

void
expectResumeBitEquality(std::uint32_t assoc)
{
    const SimFixture fix(assoc);
    const Layout layout =
        Layout::defaultOrder(fix.program, fix.cache.line_bytes);
    const FetchStream stream(fix.program, fix.trace,
                             fix.cache.line_bytes);
    const SimResult whole = simulateLayout(fix.program, layout, stream,
                                           fix.cache, true);
    ASSERT_TRUE(whole.completed);

    const TestTempDir tmp;
    const std::string path = tmp.file("resilience_resume_test.bin");
    // Interrupt at several points, including mid-checkpoint cadences.
    for (const std::uint64_t stop : {1ULL, 777ULL, 9999ULL}) {
        SimControl first;
        first.checkpoint_path = path;
        first.checkpoint_every = 500;
        first.stop_after = stop;
        const SimResult partial = simulateLayout(
            fix.program, layout, stream, fix.cache, true, &first);
        EXPECT_FALSE(partial.completed);
        EXPECT_EQ(partial.accesses, stop);

        const SimCheckpoint ckpt = loadCheckpoint(path);
        EXPECT_EQ(ckpt.cursor, stop);
        SimControl second;
        second.resume = &ckpt;
        const SimResult resumed = simulateLayout(
            fix.program, layout, stream, fix.cache, true, &second);
        EXPECT_TRUE(resumed.completed);
        EXPECT_EQ(resumed.accesses, whole.accesses) << "stop " << stop;
        EXPECT_EQ(resumed.misses, whole.misses) << "stop " << stop;
        EXPECT_EQ(resumed.misses_by_proc, whole.misses_by_proc)
            << "stop " << stop;
    }
    std::remove(path.c_str());
}

TEST(CheckpointResume, BitIdenticalDirectMapped)
{
    expectResumeBitEquality(1);
}

TEST(CheckpointResume, BitIdenticalSetAssociative)
{
    expectResumeBitEquality(4);
}

TEST(CheckpointResume, RefusesForeignCheckpoints)
{
    const SimFixture fix(1);
    const Layout layout =
        Layout::defaultOrder(fix.program, fix.cache.line_bytes);
    const FetchStream stream(fix.program, fix.trace,
                             fix.cache.line_bytes);
    SimCheckpoint ckpt;
    ckpt.fingerprint = 0xBAD; // matches no real run
    ckpt.cursor = 10;
    SimControl control;
    control.resume = &ckpt;
    EXPECT_EQ(codeOf([&] {
                  simulateLayout(fix.program, layout, stream, fix.cache,
                                 false, &control);
              }),
              ErrCode::kUser);
}

TEST(Options, RejectsUnknownWithDidYouMeanHint)
{
    const char *argv[] = {"tool", "--progam=x", "--trace=y"};
    const Options opts = Options::parse(3, argv);
    try {
        opts.rejectUnknown({"program", "trace"});
        FAIL() << "expected a TopoError";
    } catch (const TopoError &err) {
        EXPECT_EQ(err.code(), ErrCode::kUser);
        EXPECT_NE(std::string(err.what()).find("did you mean"),
                  std::string::npos);
        EXPECT_NE(std::string(err.what()).find("--program"),
                  std::string::npos);
    }
    // Nothing in common with any known option: no hint, still an error.
    const char *argv2[] = {"tool", "--zzzzzzzzzz=1"};
    const Options opts2 = Options::parse(2, argv2);
    try {
        opts2.rejectUnknown({"program", "trace"});
        FAIL() << "expected a TopoError";
    } catch (const TopoError &err) {
        EXPECT_EQ(err.code(), ErrCode::kUser);
        EXPECT_EQ(std::string(err.what()).find("did you mean"),
                  std::string::npos);
    }
    // Known options sail through.
    EXPECT_NO_THROW(opts.rejectUnknown({"program", "trace", "progam"}));
}

TEST(ToolSpec, ExitCodesAreStable)
{
    EXPECT_EQ(exitCodeFor(ErrCode::kUser), 1);
    EXPECT_EQ(exitCodeFor(ErrCode::kCorrupt), 2);
    EXPECT_EQ(exitCodeFor(ErrCode::kInternal), 3);
    try {
        failCorrupt("bad bytes", "unit");
    } catch (const TopoError &err) {
        EXPECT_EQ(err.exitCode(), 2);
        EXPECT_EQ(err.context(), "unit");
        EXPECT_NE(std::string(err.what()).find("unit"),
                  std::string::npos);
    }
}

TEST(ChunkScan, MapsChunksForTargetedDrops)
{
    const Trace trace = randomTrace(8, 100, 12);
    TraceWriteOptions wopts;
    wopts.records_per_chunk = 16;
    std::stringstream ss;
    writeBinaryTrace(ss, trace, wopts);
    const std::string bytes = ss.str();
    const std::vector<ChunkExtent> chunks =
        scanBinaryTraceChunks(bytes);
    ASSERT_EQ(chunks.size(), 7u); // ceil(100 / 16)
    std::uint64_t records = 0;
    for (std::size_t i = 0; i < chunks.size(); ++i) {
        EXPECT_LT(chunks[i].begin, chunks[i].end);
        if (i > 0) {
            EXPECT_EQ(chunks[i].begin, chunks[i - 1].end);
        }
        records += chunks[i].records;
    }
    EXPECT_EQ(records, 100u);
    EXPECT_EQ(chunks.back().end, bytes.size());
    EXPECT_EQ(codeOf([] { scanBinaryTraceChunks("topo-trace v1 3"); }),
              ErrCode::kCorrupt);
}

} // namespace
} // namespace topo
