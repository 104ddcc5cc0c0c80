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
#include <vector>

#include "topo/cache/set_associative_cache.hh"
#include "topo/cache/simulate.hh"
#include "topo/obs/log.hh"
#include "topo/obs/metrics.hh"
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

/**
 * Encode @p trace in the v1 layout (one undelimited run stream after
 * the header); the writer only emits v2, so tests build v1 by hand.
 */
std::string
encodeV1(const Trace &trace)
{
    std::string out("TOPB");
    const auto put = [&out](std::uint64_t value) {
        while (value >= 0x80) {
            out.push_back(static_cast<char>(0x80 | (value & 0x7f)));
            value >>= 7;
        }
        out.push_back(static_cast<char>(value));
    };
    put(1);
    put(trace.procCount());
    put(trace.size());
    std::int64_t prev = 0;
    for (const TraceEvent &ev : trace.events()) {
        const std::int64_t delta = static_cast<std::int64_t>(ev.proc) - prev;
        put((static_cast<std::uint64_t>(delta) << 1) ^
            static_cast<std::uint64_t>(delta >> 63));
        put(ev.offset);
        put(ev.length);
        prev = static_cast<std::int64_t>(ev.proc);
    }
    return out;
}

/**
 * One load under the installed fault plan, as text: the exit code and
 * message of the error, or the recovery report and an FNV-1a hash of
 * the events. @p load reads the trace with the options it is given.
 */
template <typename Load>
std::string
outcomeOf(Load &&load, bool recover)
{
    TraceRecovery report;
    TraceReadOptions ropts;
    ropts.recover = recover;
    ropts.report = &report;
    try {
        const Trace back = load(ropts);
        std::uint64_t h = kFnvBasis;
        for (const TraceEvent &ev : back.events()) {
            fnvMix(h, ev.proc, 4);
            fnvMix(h, ev.offset, 4);
            fnvMix(h, ev.length, 4);
        }
        char fnv[17];
        std::snprintf(fnv, sizeof fnv, "%016llx",
                      static_cast<unsigned long long>(h));
        return "recovered=" + std::to_string(report.recovered) +
               " chunks=" + std::to_string(report.chunks_recovered) +
               " kept=" + std::to_string(report.records_recovered) +
               " dropped=" + std::to_string(report.records_dropped) +
               " fnv=" + fnv;
    } catch (const TopoError &err) {
        return "exit " + std::to_string(err.exitCode()) + ": " +
               err.what();
    }
}

/** outcomeOf a file-path load of @p path. */
std::string
loadOutcome(const std::string &path, bool recover)
{
    return outcomeOf(
        [&](const TraceReadOptions &ropts) {
            return loadBinaryTrace(path, ropts);
        },
        recover);
}

/** Expected strict and recover outcomes of one v2 golden load. */
struct FaultGolden
{
    const char *spec;
    const char *strict;
    const char *recover;
};

TEST(GoldenPins, FaultPlanOutcomesOfBinaryTraceLoads)
{
    // check.sh's soak specs at seeds 1-3, plus throw_io at 0.01 (at
    // 0.001 it never fires within one load), each loaded strict and
    // with --recover from a v2 file (16 records per chunk, 500 chunks)
    // and a v1 file. The outcomes were recorded with the istream
    // decoder, when an armed plan still routed loads away from the
    // mapped decoder; the one decoder must fire every hook at the same
    // visit and so reproduce them exactly.
    const char *const kShort =
        "exit 2: readBinaryTrace: truncated chunk payload";
    const char *const kCrc = "exit 2: readBinaryTrace: chunk CRC mismatch";
    const char *const kThrow =
        "exit 2: trace_binary.chunk: injected I/O failure";
    const char *const kClean =
        "recovered=0 chunks=500 kept=8000 dropped=0 fnv=34111fe0012a9c66";
    const FaultGolden kV2[] = {
        {"read_short@0.01:1", kShort,
         "recovered=1 chunks=415 kept=6640 dropped=1360 fnv=cfda73d174ac11f9"},
        {"read_short@0.01:2", kShort,
         "recovered=1 chunks=94 kept=1504 dropped=6496 fnv=1ced16b1a052f831"},
        {"read_short@0.01:3", kShort,
         "recovered=1 chunks=65 kept=1040 dropped=6960 fnv=4b9e243e322cf695"},
        {"bitflip@0.01:1", kCrc,
         "recovered=1 chunks=415 kept=6640 dropped=1360 fnv=cfda73d174ac11f9"},
        {"bitflip@0.01:2", kCrc,
         "recovered=1 chunks=94 kept=1504 dropped=6496 fnv=1ced16b1a052f831"},
        {"bitflip@0.01:3", kCrc,
         "recovered=1 chunks=65 kept=1040 dropped=6960 fnv=4b9e243e322cf695"},
        {"throw_io@0.001:1", kClean, kClean},
        {"throw_io@0.001:2", kClean, kClean},
        {"throw_io@0.001:3", kClean, kClean},
        {"throw_io@0.01:1", kThrow,
         "recovered=1 chunks=414 kept=6624 dropped=1376 fnv=cbd574878a41bcd2"},
        {"throw_io@0.01:2", kThrow,
         "recovered=1 chunks=93 kept=1488 dropped=6512 fnv=b34caa10efb78a82"},
        {"throw_io@0.01:3", kThrow,
         "recovered=1 chunks=64 kept=1024 dropped=6976 fnv=20de18d38ed2b020"},
        {"read_short@0.02:1,bitflip@0.02:1,throw_io@0.002:1", kShort,
         "recovered=1 chunks=30 kept=480 dropped=7520 fnv=535495d4079ef50f"},
        {"read_short@0.02:2,bitflip@0.02:2,throw_io@0.002:2", kShort,
         "recovered=1 chunks=94 kept=1504 dropped=6496 fnv=1ced16b1a052f831"},
        {"read_short@0.02:3,bitflip@0.02:3,throw_io@0.002:3", kShort,
         "recovered=1 chunks=30 kept=480 dropped=7520 fnv=535495d4079ef50f"},
    };
    // v1 has no chunk hooks, and the one header visit never fires.
    const char *const kV1 =
        "recovered=0 chunks=0 kept=8000 dropped=0 fnv=34111fe0012a9c66";
    Logger::global().setLevel(LogLevel::kOff);
    const Trace trace = randomTrace(20, 8000, 41);
    const TestTempDir tmp;
    const std::string v2_path = tmp.file("golden_v2.tpb");
    const std::string v1_path = tmp.file("golden_v1.tpb");
    TraceWriteOptions wopts;
    wopts.records_per_chunk = 16;
    saveBinaryTrace(v2_path, trace, wopts);
    {
        const std::string v1 = encodeV1(trace);
        std::ofstream os(v1_path, std::ios::binary);
        os.write(v1.data(), static_cast<std::streamsize>(v1.size()));
    }
    const auto outcome = [](const char *spec, const std::string &path,
                            bool recover) {
        installFaultPlan(FaultPlan::parse(spec));
        const std::string got = loadOutcome(path, recover);
        clearFaultPlan();
        return got;
    };
    for (const FaultGolden &row : kV2) {
        EXPECT_EQ(outcome(row.spec, v2_path, false), row.strict)
            << "v2 strict " << row.spec;
        EXPECT_EQ(outcome(row.spec, v2_path, true), row.recover)
            << "v2 recover " << row.spec;
        EXPECT_EQ(outcome(row.spec, v1_path, false), kV1)
            << "v1 strict " << row.spec;
        EXPECT_EQ(outcome(row.spec, v1_path, true), kV1)
            << "v1 recover " << row.spec;
    }
}

TEST(MmapTraceResilience, SalvageParityWithTheStreamReader)
{
    // A mapped file load must be bit-for-bit interchangeable with
    // readBinaryTrace over a stream of the same bytes on damaged files
    // too: same salvaged records, same loss accounting, same
    // strict-mode error class.
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
        const std::string cut = clean.substr(0, keep);
        {
            std::ofstream os(path,
                             std::ios::binary | std::ios::trunc);
            os.write(cut.data(), static_cast<std::streamsize>(keep));
        }
        // Strict mode: both sources reject the truncation as corrupt.
        EXPECT_EQ(codeOf([&] { loadBinaryTrace(path); }),
                  ErrCode::kCorrupt)
            << "cut " << keep;
        std::istringstream strict_in(cut);
        EXPECT_EQ(codeOf([&] { readBinaryTrace(strict_in); }),
                  ErrCode::kCorrupt)
            << "cut " << keep;
        // Recover mode: identical salvage from both sources.
        TraceRecovery mapped_report, stream_report;
        TraceReadOptions ropts;
        ropts.recover = true;
        ropts.report = &mapped_report;
        const Trace mapped = loadBinaryTrace(path, ropts);
        ropts.report = &stream_report;
        std::istringstream in(cut);
        const Trace streamed = readBinaryTrace(in, ropts);
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

TEST(MmapTraceResilience, ArmedFaultPlanFiresOnTheMappedPath)
{
    // An armed plan no longer moves a load off the mapping: the mapped
    // load counts as one, fires the throw_io and bitflip hooks (the
    // flips land in a copy of the read-only payload), and ends exactly
    // as readBinaryTrace over a stream of the same bytes does.
    if (!mmapSupported())
        GTEST_SKIP() << "no mmap on this platform";
    Logger::global().setLevel(LogLevel::kOff);
    const Trace trace = randomTrace(8, 800, 13);
    TraceWriteOptions wopts;
    wopts.records_per_chunk = 8;
    std::stringstream bytes;
    writeBinaryTrace(bytes, trace, wopts);
    const TestTempDir tmp;
    const std::string path = tmp.file("resilience_mmap_fault.tpb");
    saveBinaryTrace(path, trace, wopts);

    MetricsRegistry metrics;
    MetricsScope scope(metrics);
    Counter &throws = MetricsRegistry::global().counter(
        "fault.injected.throw_io");
    Counter &flips =
        MetricsRegistry::global().counter("fault.injected.bitflip");
    const std::uint64_t throws_before = throws.value();
    const std::uint64_t flips_before = flips.value();
    for (int seed = 1; seed <= 6; ++seed) {
        FaultPlan plan;
        plan.arm(FaultKind::kThrowIo, 0.02, seed);
        plan.arm(FaultKind::kBitflip, 0.02, 100 + seed);
        for (const bool recover : {false, true}) {
            installFaultPlan(plan);
            const std::string mapped = loadOutcome(path, recover);
            installFaultPlan(plan);
            const std::string streamed = outcomeOf(
                [&](const TraceReadOptions &ropts) {
                    std::istringstream in(bytes.str());
                    return readBinaryTrace(in, ropts);
                },
                recover);
            clearFaultPlan();
            EXPECT_EQ(mapped, streamed)
                << "seed " << seed << " recover " << recover;
        }
    }
    EXPECT_EQ(metrics.counter("trace.mmap_loads").value(), 12u);
    EXPECT_GT(throws.value(), throws_before);
    EXPECT_GT(flips.value(), flips_before);
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
    std::string bytes;
    {
        std::ifstream is(path, std::ios::binary);
        std::ostringstream buf;
        buf << is.rdbuf();
        bytes = buf.str();
    }
    // The byte format, recorded before checkpoints moved onto the
    // framing helpers they share with the profile store.
    std::string hex;
    for (const char c : bytes) {
        char pair[3];
        std::snprintf(pair, sizeof pair, "%02x",
                      static_cast<unsigned char>(c));
        hex += pair;
    }
    EXPECT_EQ(hex,
              "544f504b09ac2dd56800000000000000010000000000000078563412cefaedfe"
              "40e2010000000000150300000000000004000000000000000100000000000000"
              "02000000000000000300000000000000ffffffffffffffff0300000000000000"
              "040000000000000005000000000000000600000000000000");
    const SimCheckpoint back = loadCheckpoint(path);
    EXPECT_EQ(back.fingerprint, ckpt.fingerprint);
    EXPECT_EQ(back.cursor, ckpt.cursor);
    EXPECT_EQ(back.misses, ckpt.misses);
    EXPECT_EQ(back.cache_words, ckpt.cache_words);
    EXPECT_EQ(back.misses_by_proc, ckpt.misses_by_proc);

    // A flipped payload byte must be caught by the CRC.
    {
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
    /** Loop-heavy second input: nearly every run repeats back to back. */
    Trace loop_trace{0};
    CacheConfig cache;

    explicit SimFixture(std::uint32_t assoc,
                        ReplacementPolicy policy = ReplacementPolicy::kLru)
    {
        for (int i = 0; i < 24; ++i) {
            program.addProcedure("p" + std::to_string(i),
                                 200 + 64 * (i % 7));
        }
        // Runs must stay inside their procedure for FetchStream.
        auto random_run = [this](Rng &rng, Trace &into,
                                 std::uint64_t times) {
            const ProcId proc = static_cast<ProcId>(rng.nextBelow(24));
            const std::uint32_t size = program.proc(proc).size_bytes;
            const std::uint32_t offset =
                static_cast<std::uint32_t>(rng.nextBelow(size));
            const std::uint32_t length =
                1 + static_cast<std::uint32_t>(
                        rng.nextBelow(size - offset));
            for (std::uint64_t k = 0; k < times; ++k)
                into.append(proc, offset, length);
        };
        trace = Trace(24);
        Rng rng(31);
        for (int i = 0; i < 20000; ++i)
            random_run(rng, trace, 1);
        loop_trace = Trace(24);
        Rng loop_rng(47);
        while (loop_trace.size() < 20000)
            random_run(loop_rng, loop_trace, 2 + loop_rng.nextBelow(30));
        cache.size_bytes = 2048;
        cache.line_bytes = 32;
        cache.associativity = assoc;
        cache.policy = policy;
    }
};

/**
 * What a checkpoint at fetch @p at must hold: the state of a naive
 * replay that sends fetches [0, at) through the model's access() one
 * by one and credits nothing in closed form.
 */
SimCheckpoint
naiveCheckpoint(const SimFixture &fix, const Layout &layout,
                const FetchStream &stream, std::uint64_t at)
{
    SimCheckpoint ckpt;
    ckpt.cursor = at;
    ckpt.misses_by_proc.assign(fix.program.procCount(), 0);
    withCacheModel(fix.cache, [&](auto &cache) {
        std::uint64_t cursor = 0;
        std::uint64_t base = 0;
        ProcId proc = 0;
        stream.forEachFetch(
            [&](const FetchRun &run) {
                proc = stream.procOfLine(run.first_line);
                base = layout.startLine(proc, fix.cache.line_bytes) +
                       (run.first_line - stream.lineBase(proc));
            },
            [&](std::uint32_t j) {
                if (cursor++ >= at || cache.access(base + j))
                    return;
                ++ckpt.misses;
                ++ckpt.misses_by_proc[proc];
            });
        ckpt.cache_words = cache.stateWords();
    });
    return ckpt;
}

/** The checkpoint in @p path holds the naive replay's state at @p at. */
void
expectNaiveCheckpoint(const SimFixture &fix, const Layout &layout,
                      const FetchStream &stream, const std::string &path,
                      std::uint64_t at)
{
    const SimCheckpoint ckpt = loadCheckpoint(path);
    const SimCheckpoint naive = naiveCheckpoint(fix, layout, stream, at);
    EXPECT_EQ(ckpt.cursor, at);
    EXPECT_EQ(ckpt.misses, naive.misses) << "at " << at;
    EXPECT_EQ(ckpt.misses_by_proc, naive.misses_by_proc) << "at " << at;
    EXPECT_EQ(ckpt.cache_words, naive.cache_words) << "at " << at;
}

/**
 * Stop a checkpointing replay of @p trace at each of @p stops, resume
 * it from the checkpoint with periodic checkpoints every @p every
 * fetches, and require the whole run's counters; then run to the end
 * with only periodic checkpoints and resume from the last one. Every
 * checkpoint the test reads must hold a naive replay's state.
 */
void
expectResumeBitEquality(const SimFixture &fix, const Trace &trace,
                        const std::vector<std::uint64_t> &stops,
                        std::uint64_t every)
{
    const Layout layout =
        Layout::defaultOrder(fix.program, fix.cache.line_bytes);
    const FetchStream stream(fix.program, trace, fix.cache.line_bytes);
    const SimResult whole = simulateLayout(fix.program, layout, stream,
                                           fix.cache, true);
    ASSERT_TRUE(whole.completed);
    ASSERT_EQ(whole.accesses, stream.size());

    const TestTempDir tmp;
    const std::string path = tmp.file("resilience_resume_test.bin");
    const std::string again = tmp.file("resilience_resume_again.bin");
    auto expect_resumes_to_whole = [&](std::uint64_t at) {
        expectNaiveCheckpoint(fix, layout, stream, path, at);
        const SimCheckpoint ckpt = loadCheckpoint(path);
        SimControl second;
        second.resume = &ckpt;
        second.checkpoint_path = again;
        second.checkpoint_every = every;
        std::remove(again.c_str());
        if (at != 0) {
            // A stop at the resume cursor would replay nothing.
            SimControl early = second;
            early.stop_after = at;
            EXPECT_THROW(simulateLayout(fix.program, layout, stream,
                                        fix.cache, true, &early),
                         TopoError)
                << "at " << at;
        }
        const SimResult resumed = simulateLayout(
            fix.program, layout, stream, fix.cache, true, &second);
        EXPECT_TRUE(resumed.completed);
        EXPECT_EQ(resumed.accesses, whole.accesses) << "at " << at;
        EXPECT_EQ(resumed.misses, whole.misses) << "at " << at;
        EXPECT_EQ(resumed.evictions, whole.evictions) << "at " << at;
        EXPECT_EQ(resumed.misses_by_proc, whole.misses_by_proc)
            << "at " << at;
        // The resumed run's last periodic checkpoint, if it wrote one.
        const std::uint64_t last =
            at + (stream.size() - 1 - at) / every * every;
        if (last > at)
            expectNaiveCheckpoint(fix, layout, stream, again, last);
    };
    for (const std::uint64_t stop : stops) {
        SimControl first;
        first.checkpoint_path = path;
        first.checkpoint_every = every;
        first.stop_after = stop;
        const SimResult partial = simulateLayout(
            fix.program, layout, stream, fix.cache, true, &first);
        EXPECT_FALSE(partial.completed);
        EXPECT_EQ(partial.accesses, stop);
        expect_resumes_to_whole(stop);
    }
    SimControl periodic;
    periodic.checkpoint_path = path;
    periodic.checkpoint_every = every;
    const SimResult full = simulateLayout(fix.program, layout, stream,
                                          fix.cache, true, &periodic);
    EXPECT_TRUE(full.completed);
    EXPECT_EQ(full.misses, whole.misses);
    // The last periodic checkpoint: the run's end never writes one.
    expect_resumes_to_whole((stream.size() - 1) / every * every);
    std::remove(path.c_str());
    std::remove(again.c_str());
}

void
expectResumeBitEquality(std::uint32_t assoc, ReplacementPolicy policy)
{
    SCOPED_TRACE(std::to_string(assoc) + "-way " +
                 replacementPolicyName(policy));
    const SimFixture fix(assoc, policy);
    // Interrupt at several points, including mid-checkpoint cadences.
    expectResumeBitEquality(fix, fix.trace, {1, 777, 9999}, 500);

    // The loop-heavy input stops on a run boundary, inside a first
    // pass, on a repeat's first fetch and inside a later repeat.
    const FetchStream stream(fix.program, fix.loop_trace,
                             fix.cache.line_bytes);
    const std::vector<FetchRun> &runs = stream.runs();
    std::vector<std::uint64_t> run_start(runs.size() + 1, 0);
    for (std::size_t r = 0; r < runs.size(); ++r) {
        run_start[r + 1] = run_start[r] +
                           std::uint64_t{runs[r].line_count} *
                               runs[r].repeats;
    }
    ASSERT_EQ(run_start.back(), stream.size());
    // First run at or after index @p from with at least @p repeats
    // repeats of at least @p lines lines.
    auto find_run = [&](std::size_t from, std::uint32_t repeats,
                        std::uint32_t lines) {
        std::size_t r = from;
        while (r < runs.size() &&
               (runs[r].repeats < repeats || runs[r].line_count < lines))
            ++r;
        EXPECT_LT(r, runs.size());
        return r;
    };
    const std::size_t boundary = find_run(runs.size() / 4, 2, 1);
    const std::size_t inner = find_run(runs.size() / 3, 3, 3);
    // Mid-line of the third repeat: a fetch that is neither a run's
    // nor a repeat's first.
    const std::uint64_t mid_repeat = run_start[inner] +
                                     2 * runs[inner].line_count +
                                     runs[inner].line_count / 2;
    // One periodic checkpoint, inside a repeat past the stream's
    // middle; a run resumed from the first third writes one more.
    const std::size_t late = find_run(runs.size() * 2 / 3, 2, 2);
    const std::uint64_t every = run_start[late] +
                                runs[late].line_count +
                                runs[late].line_count / 2;
    ASSERT_GT(2 * every, stream.size());
    expectResumeBitEquality(fix, fix.loop_trace,
                            {run_start[boundary], run_start[inner] + 1,
                             run_start[inner] + runs[inner].line_count,
                             mid_repeat, stream.size() - 1},
                            every);
}

TEST(CheckpointResume, BitIdenticalDirectMapped)
{
    expectResumeBitEquality(1, ReplacementPolicy::kLru);
}

TEST(CheckpointResume, BitIdenticalSetAssociative)
{
    for (const std::uint32_t assoc : {2u, 4u}) {
        for (const ReplacementPolicy policy : kAllReplacementPolicies)
            expectResumeBitEquality(assoc, policy);
    }
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
    // A payload size of 2^64 - 2 must not wrap the bounds check and
    // land on the valid-looking chunk after it.
    const unsigned char wrap[] = {'T', 'O', 'P', 'B', 2, 4, 1, 1,
                                  0xFE, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
                                  0xFF, 0xFF, 0xFF, 0x01, 0, 0, 1, 0,
                                  0, 0, 0, 0};
    const std::string wrapped(reinterpret_cast<const char *>(wrap),
                              sizeof wrap);
    EXPECT_EQ(codeOf([&] { scanBinaryTraceChunks(wrapped); }),
              ErrCode::kCorrupt);
}

} // namespace
} // namespace topo
