/**
 * @file
 * Tests of the taxonomy sink: hand-computed 3C classification on tiny
 * traces (pure-conflict ping-pong, pure-capacity streaming, an
 * all-compulsory cold run), a differential check of the reuse
 * table's Fenwick-tree stack distances against a naive O(n) LRU stack,
 * a golden of the suite's 3C splits, one table build per stream
 * (several layouts, copies, concurrent report candidates),
 * disabled-observer result/allocation parity mirroring
 * attribution_test, per-window invariants, and the comparison-report
 * and artifact-validation surfaces built on top.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <sstream>
#include <string>

#include "topo/cache/simulate.hh"
#include "topo/cache/taxonomy.hh"
#include "topo/eval/experiment.hh"
#include "topo/eval/report_gen.hh"
#include "topo/exec/exec.hh"
#include "topo/obs/metrics.hh"
#include "topo/obs/timeline.hh"
#include "topo/placement/placement_table.hh"
#include "topo/trace/reuse_table.hh"
#include "topo/util/error.hh"
#include "alloc_counter.hh"
#include "test_support.hh"

namespace topo
{
namespace
{

/** Two one-line procedures that collide on frame 0 of a 2-frame cache. */
struct PingPongFixture
{
    Program program{"pingpong"};
    Layout layout;
    CacheConfig cache{64, 32, 1}; // 2 frames

    PingPongFixture()
    {
        program.addProcedure("A", 32);
        program.addProcedure("B", 32);
        layout = Layout::fromCacheOffsets(program, {0, 1}, {0, 0}, 32,
                                          cache.lineCount());
    }

    Trace
    alternating(int rounds) const
    {
        Trace trace(2);
        for (int i = 0; i < rounds; ++i) {
            trace.appendWhole(0, 32);
            trace.appendWhole(1, 32);
        }
        return trace;
    }
};

TEST(TaxonomyTest, PureConflictPingPong)
{
    const PingPongFixture fx;
    const int kRounds = 50;
    const Trace trace = fx.alternating(kRounds);
    const FetchStream stream(fx.program, trace, 32);

    TaxonomySink sink(fx.program, stream.programLineCount(), fx.cache);
    SimObservers observers;
    observers.taxonomy = &sink;
    const SimResult result = simulateLayout(
        fx.program, fx.layout, stream, fx.cache, false, nullptr,
        &observers);

    // Both lines fit a 2-line fully-associative cache (stack distance
    // is always 1), so beyond the two first touches every miss is the
    // layout's fault: pure conflict.
    EXPECT_EQ(result.misses, 2u * kRounds);
    EXPECT_EQ(sink.compulsory(), 2u);
    EXPECT_EQ(sink.capacity(), 0u);
    EXPECT_EQ(sink.conflict(), 2u * kRounds - 2);
    EXPECT_EQ(sink.classifiedMisses(), result.misses);

    // Per-procedure split: one cold fill each, the rest conflict.
    ASSERT_EQ(sink.conflictByProc().size(), 2u);
    EXPECT_EQ(sink.compulsoryByProc()[0], 1u);
    EXPECT_EQ(sink.compulsoryByProc()[1], 1u);
    EXPECT_EQ(sink.conflictByProc()[0],
              static_cast<std::uint64_t>(kRounds - 1));
    EXPECT_EQ(sink.conflictByProc()[1],
              static_cast<std::uint64_t>(kRounds - 1));
    EXPECT_EQ(sink.capacityByProc()[0], 0u);
    EXPECT_EQ(sink.capacityByProc()[1], 0u);

    // Reuse histogram: 2 cold touches, 98 accesses at distance 1.
    const auto &hist = sink.reuseHistogram();
    EXPECT_EQ(hist[kReuseColdBucket], 2u);
    EXPECT_EQ(hist[reuseBucketOf(1)], 2u * kRounds - 2);

    const std::vector<ProcTaxonomy> top = sink.topProcs(10);
    ASSERT_EQ(top.size(), 2u);
    EXPECT_EQ(top[0].proc, 0u); // equal conflicts, id breaks the tie
    EXPECT_EQ(top[0].conflict, static_cast<std::uint64_t>(kRounds - 1));
}

TEST(TaxonomyTest, TwoWayCacheAbsorbsTheConflict)
{
    const PingPongFixture fx;
    const CacheConfig two_way{128, 32, 2};
    const Trace trace = fx.alternating(50);
    const FetchStream stream(fx.program, trace, 32);

    TaxonomySink sink(fx.program, stream.programLineCount(), two_way);
    SimObservers observers;
    observers.taxonomy = &sink;
    const SimResult result = simulateLayout(
        fx.program, fx.layout, stream, two_way, false, nullptr,
        &observers);

    // The shared set holds both lines: only the two first touches
    // miss, and first touches are compulsory by definition.
    EXPECT_EQ(result.misses, 2u);
    EXPECT_EQ(sink.compulsory(), 2u);
    EXPECT_EQ(sink.capacity(), 0u);
    EXPECT_EQ(sink.conflict(), 0u);
}

TEST(TaxonomyTest, PureCapacityStreamingLoop)
{
    // One 4-line procedure cyclically swept over a 2-line cache: every
    // re-reference has stack distance 3 >= 2, so even a
    // fully-associative cache of this capacity would miss — pure
    // capacity, never conflict, whatever the layout.
    Program program{"stream"};
    program.addProcedure("S", 128); // 4 lines
    const CacheConfig cache{64, 32, 1};
    const Layout layout = Layout::fromCacheOffsets(
        program, {0}, {0}, 32, cache.lineCount());

    const int kSweeps = 25;
    Trace trace(1);
    for (int i = 0; i < kSweeps; ++i)
        trace.appendWhole(0, 128);
    const FetchStream stream(program, trace, 32);

    TaxonomySink sink(program, stream.programLineCount(), cache);
    SimObservers observers;
    observers.taxonomy = &sink;
    const SimResult result = simulateLayout(
        program, layout, stream, cache, false, nullptr, &observers);

    EXPECT_EQ(result.accesses, 4u * kSweeps);
    EXPECT_EQ(result.misses, 4u * kSweeps);
    EXPECT_EQ(sink.compulsory(), 4u);
    EXPECT_EQ(sink.capacity(), 4u * kSweeps - 4);
    EXPECT_EQ(sink.conflict(), 0u);
    EXPECT_EQ(sink.classifiedMisses(), result.misses);

    // Every re-reference sits at stack distance 3.
    EXPECT_EQ(sink.reuseHistogram()[reuseBucketOf(3)],
              4u * kSweeps - 4);
}

TEST(TaxonomyTest, AllCompulsoryColdRun)
{
    // Touch every line exactly once: every miss is a first touch.
    Program program{"cold"};
    program.addProcedure("C", 256); // 8 lines
    const CacheConfig cache{64, 32, 1};
    const Layout layout = Layout::fromCacheOffsets(
        program, {0}, {0}, 32, cache.lineCount());

    Trace trace(1);
    trace.appendWhole(0, 256);
    const FetchStream stream(program, trace, 32);

    TaxonomySink sink(program, stream.programLineCount(), cache);
    SimObservers observers;
    observers.taxonomy = &sink;
    const SimResult result = simulateLayout(
        program, layout, stream, cache, false, nullptr, &observers);

    EXPECT_EQ(result.misses, 8u);
    EXPECT_EQ(sink.compulsory(), 8u);
    EXPECT_EQ(sink.capacity(), 0u);
    EXPECT_EQ(sink.conflict(), 0u);
    EXPECT_EQ(sink.reuseHistogram()[kReuseColdBucket], 8u);
}

/**
 * Differential check of the reuse-table builder: a naive LRU stack
 * (O(n) per access) expands a pseudo-random stream over @p lines
 * program lines fetch by fetch. Every first-pass table entry must match
 * the stack's distance bucket and shadow verdict, every later-pass
 * fetch must sit at the closed-form distance line_count - 1, and a
 * sink fed those entries with pseudo-random real-cache verdicts must
 * reproduce the naive 3C tallies and histogram. The builder compacts
 * its access times each time the clock reaches twice the line count,
 * so long streams over few lines compact on nearly every access.
 */
std::array<std::uint64_t, kReuseBucketCount>
expectMatchesNaiveStack(std::uint32_t lines, int steps)
{
    SCOPED_TRACE(std::string("lines ").append(std::to_string(lines)));
    Program program{"rand"};
    program.addProcedure("R", lines * 32);
    const CacheConfig cache{8 * 32, 32, 1}; // 8-line shadow

    std::uint64_t state = 0x13198a2e03707344ull;
    auto next_rand = [&state]() {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        return static_cast<std::uint32_t>(state >> 33);
    };

    // Skewed line choice so some lines re-reference at short distances
    // and others stream; every fifth event spans up to four lines, and
    // every seventh repeats back to back.
    Trace trace(1);
    const std::uint32_t hot = std::min<std::uint32_t>(lines, 16);
    for (int step = 0; step < steps; ++step) {
        const std::uint32_t line = next_rand() % (step % 3 == 0 ? lines : hot);
        const std::uint32_t span =
            step % 5 == 0
                ? 1 + next_rand() % std::min<std::uint32_t>(4, lines - line)
                : 1;
        for (int copy = step % 7 == 0 ? 2 : 1; copy > 0; --copy)
            trace.append(0, line * 32, span * 32);
    }
    const FetchStream stream(program, trace, 32);
    const std::vector<std::uint8_t> table =
        buildReuseTable(stream, cache.lineCount());

    TaxonomySink sink(program, lines, cache);
    std::array<std::uint64_t, kReuseBucketCount> naive_hist{};
    std::uint64_t naive_compulsory = 0, naive_capacity = 0,
                  naive_conflict = 0;
    std::vector<std::uint32_t> stack; // most recent first
    std::size_t next_entry = 0;
    std::uint64_t later_passes = 0;
    for (const FetchRun &run : stream.runs()) {
        for (std::uint32_t pass = 0; pass < run.repeats; ++pass) {
            for (std::uint32_t j = 0; j < run.line_count; ++j) {
                const std::uint32_t line = run.first_line + j;
                const bool real_hit = next_rand() % 4 == 0;
                const auto it = std::find(stack.begin(), stack.end(), line);
                std::uint8_t naive_entry;
                if (it == stack.end()) {
                    naive_entry =
                        static_cast<std::uint8_t>(kReuseColdBucket);
                    if (!real_hit)
                        ++naive_compulsory;
                } else {
                    const std::uint64_t distance =
                        static_cast<std::uint64_t>(it - stack.begin());
                    naive_entry = reuseEntry(distance, cache.lineCount());
                    if (!real_hit) {
                        if (distance < cache.lineCount())
                            ++naive_conflict;
                        else
                            ++naive_capacity;
                    }
                    if (pass != 0) {
                        ++later_passes;
                        EXPECT_EQ(distance, run.line_count - 1u);
                    }
                    stack.erase(it);
                }
                stack.insert(stack.begin(), line);
                ++naive_hist[naive_entry & kReuseBucketMask];

                std::uint8_t entry = naive_entry;
                if (pass == 0) {
                    EXPECT_LT(next_entry, table.size());
                    if (next_entry == table.size())
                        return naive_hist;
                    entry = table[next_entry++];
                    EXPECT_EQ(entry, naive_entry)
                        << "first-pass fetch " << next_entry - 1;
                    if (entry != naive_entry)
                        return naive_hist;
                }
                sink.classify(0, entry, real_hit);
            }
        }
    }
    EXPECT_EQ(next_entry, table.size());
    EXPECT_GT(later_passes, 0u);

    EXPECT_EQ(sink.compulsory(), naive_compulsory);
    EXPECT_EQ(sink.capacity(), naive_capacity);
    EXPECT_EQ(sink.conflict(), naive_conflict);
    for (std::size_t b = 0; b < kReuseBucketCount; ++b)
        EXPECT_EQ(sink.reuseHistogram()[b], naive_hist[b])
            << "bucket " << b;
    return naive_hist;
}

TEST(TaxonomyTest, ReuseHistogramMatchesNaiveStackDistance)
{
    const int kSteps = 100000;
    expectMatchesNaiveStack(1, kSteps);
    expectMatchesNaiveStack(2, kSteps);
    // 150 lines reach stack distances in [128, 256): bucket 8.
    const auto hist = expectMatchesNaiveStack(150, kSteps);
    EXPECT_GT(hist[8], 0u);
}

TEST(TaxonomyTest, RejectsLineCountsBeyondThirtyBitTimes)
{
    // The stream's reuse table, which every taxonomy replay reads,
    // numbers access times up to twice the line count in 32 bits, so
    // the sink refuses 2^30 lines and up when it is built, not when a
    // replay first asks for the table. The check runs before the sink
    // allocates its per-procedure tallies: the refusal costs no more
    // allocations than the error itself.
    Program program{"huge"};
    program.addProcedure("H", 32);
    const CacheConfig cache{64, 32, 1};
    std::string message;
    std::uint64_t sink_allocs = 0;
    std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
    try {
        TaxonomySink sink(program, ~std::uint32_t{0}, cache);
        ADD_FAILURE() << "oversized line count accepted";
    } catch (const TopoError &e) {
        sink_allocs = g_allocs.load(std::memory_order_relaxed) - before;
        message = e.what();
    }
    // Nothing but the error itself may allocate: the same failure
    // raised directly costs as many allocations.
    before = g_allocs.load(std::memory_order_relaxed);
    EXPECT_THROW(require(false, message), TopoError);
    EXPECT_EQ(sink_allocs,
              g_allocs.load(std::memory_order_relaxed) - before);
}

TEST(TaxonomyGolden, SuiteTaxonomyAtScale005)
{
    // Recorded at the commit before the reuse counter moved from an
    // order-statistic tree to a Fenwick tree. Each row holds one
    // layout's compulsory, capacity and conflict counts, an FNV-1a hash
    // of its reuse histogram and one of its top 16 conflict procedures
    // (id and the three counts), for default, PH, HKC and GBSC.
    static const WordGolden<5> kGolden[] = {
        {"m88ksim default",
         {0x0000000000000a49ULL, 0x0000000000000565ULL, 0x00000000000098dbULL,
          0x41cb63c6283b4f75ULL, 0xf1c5e51bb91d248dULL}},
        {"m88ksim PH",
         {0x0000000000000a49ULL, 0x0000000000000546ULL, 0x0000000000006f91ULL,
          0x41cb63c6283b4f75ULL, 0x48c00099986912efULL}},
        {"m88ksim HKC",
         {0x0000000000000a49ULL, 0x00000000000005ccULL, 0x0000000000004a8dULL,
          0x41cb63c6283b4f75ULL, 0x0337fe8019dfd40eULL}},
        {"m88ksim GBSC",
         {0x0000000000000a49ULL, 0x00000000000004beULL, 0x0000000000000140ULL,
          0x41cb63c6283b4f75ULL, 0x03fdb77e671135c0ULL}},
        {"gcc default",
         {0x000000000000256eULL, 0x000000000001a886ULL, 0x0000000000000b84ULL,
          0x21b51e9f296fef8aULL, 0x47c5f73342c87ce2ULL}},
        {"gcc PH",
         {0x000000000000256eULL, 0x000000000001ac86ULL, 0x00000000000005b6ULL,
          0x21b51e9f296fef8aULL, 0x0b54164965fccbedULL}},
        {"gcc HKC",
         {0x000000000000256eULL, 0x000000000001ae1eULL, 0x0000000000000424ULL,
          0x21b51e9f296fef8aULL, 0xd3f346e8da776b1bULL}},
        {"gcc GBSC",
         {0x000000000000256eULL, 0x000000000001ad0dULL, 0x000000000000007dULL,
          0x21b51e9f296fef8aULL, 0xf31026dad29b53fcULL}},
    };
    const char *const kBenchmarks[] = {"m88ksim", "gcc"};
    std::size_t row = 0;
    for (const char *name : kBenchmarks) {
        const ProfileBundle bundle(paperBenchmark(name, 0.05),
                                   EvalOptions{});
        const FetchStream &stream = bundle.testStream();
        const CacheConfig &cache = bundle.options().cache;
        for (std::size_t a = 0; a < 4; ++a, ++row) {
            ASSERT_LT(row, std::size(kGolden));
            SCOPED_TRACE(kGolden[row].name);
            const Layout layout =
                kPlacementTable[a].algorithm.place(bundle.makeContext());
            TaxonomySink sink(bundle.program(),
                              stream.programLineCount(), cache);
            SimObservers observers;
            observers.taxonomy = &sink;
            simulateLayout(bundle.program(), layout, stream, cache,
                           false, nullptr, &observers);
            std::uint64_t hist_hash = kFnvBasis;
            for (const std::uint64_t count : sink.reuseHistogram())
                fnvMix(hist_hash, count, 8);
            std::uint64_t top_hash = kFnvBasis;
            for (const ProcTaxonomy &p : sink.topProcs(16)) {
                fnvMix(top_hash, p.proc, 4);
                fnvMix(top_hash, p.compulsory, 8);
                fnvMix(top_hash, p.capacity, 8);
                fnvMix(top_hash, p.conflict, 8);
            }
            const std::uint64_t got[5] = {sink.compulsory(),
                                          sink.capacity(),
                                          sink.conflict(), hist_hash,
                                          top_hash};
            expectGolden(kGolden[row], got);
        }
    }
    EXPECT_EQ(row, std::size(kGolden));
}

TEST(TaxonomyTest, Log2BucketsAndMetricNames)
{
    EXPECT_EQ(reuseBucketOf(0), 0);
    EXPECT_EQ(reuseBucketOf(1), 1);
    EXPECT_EQ(reuseBucketOf(2), 2);
    EXPECT_EQ(reuseBucketOf(3), 2);
    EXPECT_EQ(reuseBucketOf(4), 3);
    EXPECT_EQ(reuseBucketOf(7), 3);
    EXPECT_EQ(reuseBucketOf(8), 4);
    EXPECT_EQ(reuseBucketOf(~std::uint64_t{0}), 32);
    EXPECT_EQ(reuseBucketMetricName(0), "taxonomy.reuse.b00");
    EXPECT_EQ(reuseBucketMetricName(32), "taxonomy.reuse.b32");
    EXPECT_EQ(reuseBucketMetricName(kReuseColdBucket),
              "taxonomy.reuse.cold");
    EXPECT_EQ(reuseBucketLabel(0), "0");
    EXPECT_EQ(reuseBucketLabel(kReuseColdBucket), "cold");
}

TEST(TaxonomyTest, DisabledObserverLeavesResultsIdentical)
{
    const PingPongFixture fx;
    const Trace trace = fx.alternating(200);
    const FetchStream stream(fx.program, trace, 32);

    const SimResult plain =
        simulateLayout(fx.program, fx.layout, stream, fx.cache, true);

    TaxonomySink sink(fx.program, stream.programLineCount(), fx.cache);
    TimelineRecorder timeline(16, fx.program.procCount());
    SimObservers observers;
    observers.taxonomy = &sink;
    observers.timeline = &timeline;
    const SimResult observed = simulateLayout(
        fx.program, fx.layout, stream, fx.cache, true, nullptr,
        &observers);

    EXPECT_EQ(plain.accesses, observed.accesses);
    EXPECT_EQ(plain.misses, observed.misses);
    EXPECT_EQ(plain.evictions, observed.evictions);
    EXPECT_EQ(plain.misses_by_proc, observed.misses_by_proc);
    EXPECT_EQ(sink.classifiedMisses(), observed.misses);
}

TEST(TaxonomyTest, PerWindowInvariantsHold)
{
    const PingPongFixture fx;
    const Trace trace = fx.alternating(100);
    const FetchStream stream(fx.program, trace, 32);

    TaxonomySink sink(fx.program, stream.programLineCount(), fx.cache);
    TimelineRecorder timeline(16, fx.program.procCount());
    SimObservers observers;
    observers.taxonomy = &sink;
    observers.timeline = &timeline;
    simulateLayout(fx.program, fx.layout, stream, fx.cache, false,
                   nullptr, &observers);

    EXPECT_TRUE(timeline.taxonomyArmed());
    std::uint64_t total_compulsory = 0, total_capacity = 0,
                  total_conflict = 0, total_hist = 0;
    for (const TimelineSample &sample : timeline.samples()) {
        // Window-local 3C sums to the window's misses; the window
        // histogram covers every access in the window.
        EXPECT_EQ(sample.compulsory + sample.capacity + sample.conflict,
                  sample.misses);
        std::uint64_t hist_sum = 0;
        for (const std::uint32_t count : sample.reuse_hist)
            hist_sum += count;
        EXPECT_EQ(hist_sum, sample.accesses);
        total_compulsory += sample.compulsory;
        total_capacity += sample.capacity;
        total_conflict += sample.conflict;
        total_hist += hist_sum;
    }
    EXPECT_EQ(total_compulsory, sink.compulsory());
    EXPECT_EQ(total_capacity, sink.capacity());
    EXPECT_EQ(total_conflict, sink.conflict());
    EXPECT_EQ(total_hist, 200u);

    // The windowed samples serialise with the taxonomy columns.
    const JsonValue json =
        JsonValue::parse(timeline.toJson().toString());
    const JsonValue &first = json.at("samples").at(std::size_t{0});
    EXPECT_NE(first.find("conflict"), nullptr);
    EXPECT_EQ(first.at("reuse_hist").size(), kReuseBucketCount);
}

TEST(TaxonomyTest, HotLoopIsAllocationFree)
{
    const PingPongFixture fx;
    const Trace small_trace = fx.alternating(100);
    const Trace big_trace = fx.alternating(4000);
    const FetchStream small_stream(fx.program, small_trace, 32);
    const FetchStream big_stream(fx.program, big_trace, 32);

    auto count_allocs = [&](const FetchStream &stream) {
        TaxonomySink sink(fx.program, stream.programLineCount(),
                          fx.cache);
        TimelineRecorder timeline(64, fx.program.procCount());
        SimObservers observers;
        observers.taxonomy = &sink;
        observers.timeline = &timeline;
        const std::uint64_t before =
            g_allocs.load(std::memory_order_relaxed);
        simulateLayout(fx.program, fx.layout, stream, fx.cache, false,
                       nullptr, &observers);
        return g_allocs.load(std::memory_order_relaxed) - before;
    };

    // Warm up registry entries, then compare: the sink keeps only
    // per-procedure tallies, sized at construction, and the first
    // replay of a stream builds its reuse table in a fixed number of
    // allocations whatever the stream's length, so on the 40x stream
    // only the timeline's window vector may grow.
    count_allocs(small_stream);
    const std::uint64_t small_allocs = count_allocs(small_stream);
    const std::uint64_t big_allocs = count_allocs(big_stream);
    EXPECT_LE(big_allocs, small_allocs + 32);
}

/** Taxonomy replays of @p layouts on @p stream; returns the sinks'
 *  conflict counts. */
std::vector<std::uint64_t>
conflictsOf(const Program &program, const FetchStream &stream,
            const CacheConfig &cache, const std::vector<Layout> &layouts)
{
    std::vector<std::uint64_t> conflicts;
    for (const Layout &layout : layouts) {
        TaxonomySink sink(program, stream.programLineCount(), cache);
        SimObservers observers;
        observers.taxonomy = &sink;
        simulateLayout(program, layout, stream, cache, false, nullptr,
                       &observers);
        conflicts.push_back(sink.conflict());
    }
    return conflicts;
}

std::uint64_t
tableBuilds(MetricsRegistry &metrics)
{
    return metrics.counter("trace.reuse_table_builds").value();
}

TEST(TaxonomyTest, ReuseTableIsBuiltOncePerStream)
{
    const ProfileBundle bundle(paperBenchmark("m88ksim", 0.02),
                               EvalOptions{});
    const CacheConfig &cache = bundle.options().cache;
    std::vector<Layout> layouts;
    for (std::size_t a = 0; a < 4; ++a) {
        layouts.push_back(
            kPlacementTable[a].algorithm.place(bundle.makeContext()));
    }

    MetricsRegistry metrics;
    MetricsScope scope(metrics);
    const FetchStream &stream = bundle.testStream();
    const std::vector<std::uint64_t> want =
        conflictsOf(bundle.program(), stream, cache, layouts);
    EXPECT_EQ(tableBuilds(metrics), 1u);
    // The build is one span, nested in the replay that asked for it.
    EXPECT_EQ(metrics.histogram("phase.simulate.reuse_table.ms")
                  .stats()
                  .count(),
              1u);

    // Copies and moves made after the build share its table.
    const FetchStream copy = stream;
    EXPECT_EQ(conflictsOf(bundle.program(), copy, cache, layouts), want);
    FetchStream scratch = stream;
    const FetchStream moved = std::move(scratch);
    EXPECT_EQ(conflictsOf(bundle.program(), moved, cache, layouts), want);
    EXPECT_EQ(tableBuilds(metrics), 1u);

    // A different shadow size is a different table.
    CacheConfig half = cache;
    half.size_bytes /= 2;
    conflictsOf(bundle.program(), stream, half, {layouts.front()});
    EXPECT_EQ(tableBuilds(metrics), 2u);

    // A plain replay builds none.
    MetricsRegistry plain;
    MetricsScope plain_scope(plain);
    const FetchStream fresh(bundle.program(), bundle.testTrace(),
                            cache.line_bytes);
    simulateLayout(bundle.program(), layouts.front(), fresh, cache);
    EXPECT_EQ(tableBuilds(plain), 0u);
}

TEST(TaxonomyReportTest, ConcurrentCandidatesBuildOneTable)
{
    const ProfileBundle bundle(paperBenchmark("m88ksim", 0.01),
                               EvalOptions{});
    const CacheConfig &cache = bundle.options().cache;
    std::vector<LayoutCandidate> candidates;
    for (std::size_t a = 0; a < 4; ++a) {
        candidates.push_back(
            {std::string(kPlacementTable[a].name),
             kPlacementTable[a].algorithm.place(bundle.makeContext())});
    }
    // A fresh stream, so the four candidates race for its first build.
    const FetchStream stream(bundle.program(), bundle.testTrace(),
                             cache.line_bytes);
    MetricsRegistry metrics;
    MetricsScope scope(metrics);
    const int jobs = execJobs();
    setExecJobs(4);
    const ComparisonReport report = buildComparisonReport(
        bundle.program(), stream, cache, candidates, ReportOptions{});
    setExecJobs(jobs);
    EXPECT_EQ(tableBuilds(metrics), 1u);
    ASSERT_EQ(report.layouts.size(), 4u);
    for (const LayoutReport &entry : report.layouts) {
        EXPECT_EQ(entry.reuse_hist, report.layouts[0].reuse_hist);
        EXPECT_EQ(entry.compulsory + entry.capacity + entry.conflict,
                  entry.misses);
    }
}

TEST(TaxonomyTest, ObserverRejectsCheckpointControl)
{
    const PingPongFixture fx;
    const Trace trace = fx.alternating(5);
    const FetchStream stream(fx.program, trace, 32);
    TaxonomySink sink(fx.program, stream.programLineCount(), fx.cache);
    SimObservers observers;
    observers.taxonomy = &sink;
    SimControl control;
    const TestTempDir tmp;
    control.checkpoint_path = tmp.file("unused.ckpt");
    control.checkpoint_every = 1;
    EXPECT_THROW(simulateLayout(fx.program, fx.layout, stream, fx.cache,
                                false, &control, &observers),
                 TopoError);
}

TEST(TaxonomyReportTest, ComparisonReportSplitsConflictFromCapacity)
{
    const PingPongFixture fx;
    const Trace trace = fx.alternating(50);
    const FetchStream stream(fx.program, trace, 32);

    const Layout apart = Layout::fromCacheOffsets(
        fx.program, {0, 1}, {0, 1}, 32, fx.cache.lineCount());

    ReportOptions options;
    options.timeline_window = 10;
    const ComparisonReport report = buildComparisonReport(
        fx.program, stream, fx.cache,
        {{"overlapped", fx.layout}, {"separated", apart}}, options);

    ASSERT_EQ(report.layouts.size(), 2u);
    // Compulsory and the reuse profile are stream properties —
    // identical across candidates; the conflict column is what the
    // better layout eliminates.
    EXPECT_EQ(report.layouts[0].compulsory, 2u);
    EXPECT_EQ(report.layouts[1].compulsory, 2u);
    EXPECT_EQ(report.layouts[0].reuse_hist,
              report.layouts[1].reuse_hist);
    EXPECT_EQ(report.layouts[0].conflict, 98u);
    EXPECT_EQ(report.layouts[1].conflict, 0u);
    EXPECT_EQ(report.layouts[0].compulsory + report.layouts[0].capacity +
                  report.layouts[0].conflict,
              report.layouts[0].misses);

    std::ostringstream md;
    renderReportMarkdown(report, md);
    EXPECT_NE(md.str().find("Miss taxonomy (3C)"), std::string::npos);
    EXPECT_NE(md.str().find("Reuse-distance profile"),
              std::string::npos);
}

TEST(TaxonomyReportTest, ValidatorAcceptsRealAndRejectsBrokenDocs)
{
    const PingPongFixture fx;
    const Trace trace = fx.alternating(50);
    const FetchStream stream(fx.program, trace, 32);
    ReportOptions options;
    options.timeline_window = 10;
    const ComparisonReport report = buildComparisonReport(
        fx.program, stream, fx.cache, {{"overlapped", fx.layout}},
        options);

    JsonValue doc =
        JsonValue::parse(reportToJson(report).toString());
    EXPECT_EQ(validateArtifactJson(doc), "topo_report");

    // Breaking the 3C sum must be caught...
    {
        JsonValue broken =
            JsonValue::parse(reportToJson(report).toString());
        JsonValue layouts = broken.at("layouts");
        JsonValue row = layouts.at(std::size_t{0});
        JsonValue taxonomy = row.at("taxonomy");
        taxonomy.set("conflict", JsonValue::number(1.0));
        row.set("taxonomy", std::move(taxonomy));
        JsonValue fixed_layouts = JsonValue::array();
        fixed_layouts.push(std::move(row));
        broken.set("layouts", std::move(fixed_layouts));
        EXPECT_THROW(validateArtifactJson(broken), TopoError);
    }
    // ...and so must an unknown key.
    {
        JsonValue broken =
            JsonValue::parse(reportToJson(report).toString());
        broken.set("surprise", JsonValue::number(1.0));
        EXPECT_THROW(validateArtifactJson(broken), TopoError);
    }
    // Unrecognised document types are corrupt, not silently valid.
    JsonValue stranger = JsonValue::object();
    stranger.set("anything", JsonValue::number(1.0));
    EXPECT_THROW(validateArtifactJson(stranger), TopoError);
}

} // namespace
} // namespace topo
