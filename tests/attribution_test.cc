/**
 * @file
 * Tests of the attribution sink: a hand-computable two-procedure
 * conflict layout where every cell of the conflict matrix is known in
 * advance, the disabled-sink equivalence guarantee (observers must not
 * change simulation results), a hot-loop allocation bound, and the
 * comparison-report generator built on top.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <sstream>

#include "topo/cache/attribution.hh"
#include "topo/cache/simulate.hh"
#include "topo/eval/report_gen.hh"
#include "topo/obs/timeline.hh"
#include "topo/util/error.hh"
#include "alloc_counter.hh"
#include "test_support.hh"

namespace topo
{
namespace
{

/** Two one-line procedures that collide on frame 0 of a 2-frame cache. */
struct ConflictFixture
{
    Program program{"conflict"};
    Layout layout;
    CacheConfig cache{64, 32, 1}; // 2 frames

    ConflictFixture()
    {
        program.addProcedure("A", 32);
        program.addProcedure("B", 32);
        // Both procedures at cache-line offset 0: A at line 0, B at
        // line 2 — the same frame of the 2-line cache.
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

TEST(AttributionTest, HandComputedConflictMatrix)
{
    const ConflictFixture fx;
    const int kRounds = 50;
    const Trace trace = fx.alternating(kRounds);
    const FetchStream stream(fx.program, trace, 32);

    AttributionSink sink(fx.program, fx.layout, fx.cache, 32);
    SimObservers observers;
    observers.attribution = &sink;
    const SimResult result = simulateLayout(
        fx.program, fx.layout, stream, fx.cache, false, nullptr,
        &observers);

    // A,B,A,B,... on one frame: every access misses. The first A is a
    // cold fill; every later access evicts the other procedure.
    EXPECT_EQ(result.accesses, 2u * kRounds);
    EXPECT_EQ(result.misses, 2u * kRounds);
    EXPECT_EQ(result.evictions, 2u * kRounds - 1);
    EXPECT_EQ(sink.evictions(), 2u * kRounds - 1);

    ASSERT_EQ(sink.fetchesByProc().size(), 2u);
    EXPECT_EQ(sink.fetchesByProc()[0], static_cast<std::uint64_t>(kRounds));
    EXPECT_EQ(sink.fetchesByProc()[1], static_cast<std::uint64_t>(kRounds));
    EXPECT_EQ(sink.missesByProc()[0], static_cast<std::uint64_t>(kRounds));
    EXPECT_EQ(sink.missesByProc()[1], static_cast<std::uint64_t>(kRounds));

    // All traffic lands in set 0; set 1 stays untouched.
    ASSERT_EQ(sink.accessesBySet().size(), 2u);
    EXPECT_EQ(sink.accessesBySet()[0], 2u * kRounds);
    EXPECT_EQ(sink.accessesBySet()[1], 0u);
    EXPECT_EQ(sink.missesBySet()[0], 2u * kRounds);
    EXPECT_EQ(sink.missesBySet()[1], 0u);

    // B evicts A on every B access (kRounds); A evicts B on every A
    // access after the first round (kRounds - 1).
    const std::vector<ConflictPair> pairs = sink.topPairs(10);
    ASSERT_EQ(pairs.size(), 2u);
    EXPECT_EQ(pairs[0].evictor, 1u);
    EXPECT_EQ(pairs[0].victim, 0u);
    EXPECT_EQ(pairs[0].count, static_cast<std::uint64_t>(kRounds));
    EXPECT_EQ(pairs[1].evictor, 0u);
    EXPECT_EQ(pairs[1].victim, 1u);
    EXPECT_EQ(pairs[1].count, static_cast<std::uint64_t>(kRounds - 1));
    EXPECT_EQ(sink.trackedPairs(), 2u);
    EXPECT_EQ(sink.droppedPairs(), 0u);

    // Victim lines resolve through the layout: A owns line 0, B owns
    // line 2, and the gap line 1 belongs to nobody.
    EXPECT_EQ(sink.procAtLine(0), 0u);
    EXPECT_EQ(sink.procAtLine(2), 1u);
    EXPECT_EQ(sink.procAtLine(1), kInvalidProc);
    EXPECT_EQ(sink.procAtLine(99), kInvalidProc);
}

TEST(AttributionTest, TwoWayCacheAbsorbsTheConflict)
{
    const ConflictFixture fx;
    const CacheConfig two_way{128, 32, 2}; // same sets, 2 ways
    const Trace trace = fx.alternating(50);
    const FetchStream stream(fx.program, trace, 32);

    AttributionSink sink2(fx.program, fx.layout, two_way, 32);
    SimObservers observers;
    observers.attribution = &sink2;
    const SimResult result = simulateLayout(
        fx.program, fx.layout, stream, two_way, false, nullptr,
        &observers);

    // Both lines fit the shared set: only the two cold misses, no
    // valid-line evictions, an empty conflict matrix.
    EXPECT_EQ(result.misses, 2u);
    EXPECT_EQ(sink2.evictions(), 0u);
    EXPECT_TRUE(sink2.topPairs(10).empty());
}

TEST(AttributionTest, PairBudgetBoundsTheMatrix)
{
    const ConflictFixture fx;
    const Trace trace = fx.alternating(50);
    const FetchStream stream(fx.program, trace, 32);

    AttributionSink::Options options;
    options.max_pairs = 1;
    AttributionSink sink(fx.program, fx.layout, fx.cache, 32, options);
    SimObservers observers;
    observers.attribution = &sink;
    simulateLayout(fx.program, fx.layout, stream, fx.cache, false,
                   nullptr, &observers);

    // Only the first pair (B evicts A) fits the budget; the reverse
    // pair's evictions are counted as dropped, not lost silently.
    EXPECT_EQ(sink.trackedPairs(), 1u);
    EXPECT_EQ(sink.droppedPairs(), 49u);
    EXPECT_EQ(sink.evictions(), 99u);
}

TEST(AttributionTest, DisabledSinkLeavesResultsIdentical)
{
    const ConflictFixture fx;
    const Trace trace = fx.alternating(200);
    const FetchStream stream(fx.program, trace, 32);

    const SimResult plain =
        simulateLayout(fx.program, fx.layout, stream, fx.cache, true);

    AttributionSink sink(fx.program, fx.layout, fx.cache, 32);
    TimelineRecorder timeline(16, fx.program.procCount());
    SimObservers observers;
    observers.attribution = &sink;
    observers.timeline = &timeline;
    const SimResult observed = simulateLayout(
        fx.program, fx.layout, stream, fx.cache, true, nullptr,
        &observers);

    EXPECT_EQ(plain.accesses, observed.accesses);
    EXPECT_EQ(plain.misses, observed.misses);
    EXPECT_EQ(plain.evictions, observed.evictions);
    EXPECT_EQ(plain.misses_by_proc, observed.misses_by_proc);

    // The timeline saw every access.
    std::uint64_t timeline_accesses = 0;
    for (const TimelineSample &sample : timeline.samples())
        timeline_accesses += sample.accesses;
    EXPECT_EQ(timeline_accesses, observed.accesses);
}

TEST(AttributionTest, HotLoopIsAllocationFree)
{
    const ConflictFixture fx;
    const Trace small_trace = fx.alternating(100);
    const Trace big_trace = fx.alternating(4000);
    const FetchStream small_stream(fx.program, small_trace, 32);
    const FetchStream big_stream(fx.program, big_trace, 32);

    auto count_allocs = [&](const FetchStream &stream) {
        AttributionSink sink(fx.program, fx.layout, fx.cache, 32);
        TimelineRecorder timeline(64, fx.program.procCount());
        SimObservers observers;
        observers.attribution = &sink;
        observers.timeline = &timeline;
        const std::uint64_t before =
            g_allocs.load(std::memory_order_relaxed);
        simulateLayout(fx.program, fx.layout, stream, fx.cache, false,
                       nullptr, &observers);
        return g_allocs.load(std::memory_order_relaxed) - before;
    };

    // Warm up metric-registry entries so both runs see the same
    // steady state, then compare: 40x the stream must not allocate
    // more than a small constant extra (timeline windows aside, the
    // replay loop itself is allocation-free).
    count_allocs(small_stream);
    const std::uint64_t small_allocs = count_allocs(small_stream);
    const std::uint64_t big_allocs = count_allocs(big_stream);
    // The big run records more timeline windows (vector growth), but
    // nothing proportional to the 8000-access stream.
    EXPECT_LE(big_allocs, small_allocs + 32);
}

TEST(AttributionTest, SteadyStateBatchedReplayIsAllocationFree)
{
    // The plain (unobserved, uncontrolled) replay takes the batched
    // fast path whose only scratch, the per-layout line-address table,
    // lives in a thread-local arena. Once a first replay has grown the
    // arena and the cache/metrics steady state exists, replaying a
    // stream 40x longer must allocate exactly as much as replaying the
    // short one — the replay loop itself performs zero allocations per
    // access.
    const ConflictFixture fx;
    const Trace small_trace = fx.alternating(100);
    const Trace big_trace = fx.alternating(4000);
    const FetchStream small_stream(fx.program, small_trace, 32);
    const FetchStream big_stream(fx.program, big_trace, 32);

    auto count_allocs = [&](const FetchStream &stream) {
        const std::uint64_t before =
            g_allocs.load(std::memory_order_relaxed);
        simulateLayout(fx.program, fx.layout, stream, fx.cache, false);
        return g_allocs.load(std::memory_order_relaxed) - before;
    };

    count_allocs(big_stream); // warm arena, cache words, metrics
    const std::uint64_t small_allocs = count_allocs(small_stream);
    const std::uint64_t big_allocs = count_allocs(big_stream);
    EXPECT_EQ(big_allocs, small_allocs);
}

TEST(ReportGenTest, ComparisonReportNamesWinnersAndPairs)
{
    const ConflictFixture fx;
    const Trace trace = fx.alternating(50);
    const FetchStream stream(fx.program, trace, 32);

    // Candidate 2 separates the procedures onto distinct frames.
    const Layout apart = Layout::fromCacheOffsets(
        fx.program, {0, 1}, {0, 1}, 32, fx.cache.lineCount());

    ReportOptions options;
    options.timeline_window = 10;
    const ComparisonReport report = buildComparisonReport(
        fx.program, stream, fx.cache,
        {{"overlapped", fx.layout}, {"separated", apart}}, options);

    ASSERT_EQ(report.layouts.size(), 2u);
    EXPECT_EQ(report.layouts[0].misses, 100u);
    EXPECT_EQ(report.layouts[1].misses, 2u);
    ASSERT_EQ(report.layouts[0].top_pairs.size(), 2u);
    EXPECT_EQ(report.layouts[0].top_pairs[0].evictor, "B");
    EXPECT_EQ(report.layouts[0].top_pairs[0].victim, "A");
    EXPECT_EQ(report.layouts[0].top_pairs[0].count, 50u);
    EXPECT_TRUE(report.layouts[1].top_pairs.empty());
    // The separated layout wins every complete window.
    EXPECT_GT(report.layouts[1].windows_better, 0u);
    EXPECT_EQ(report.layouts[1].windows_worse, 0u);

    std::ostringstream md;
    renderReportMarkdown(report, md);
    EXPECT_NE(md.str().find("overlapped"), std::string::npos);
    EXPECT_NE(md.str().find("separated"), std::string::npos);
    EXPECT_NE(md.str().find("| `B` | `A` | 50 |"), std::string::npos);

    const JsonValue json =
        JsonValue::parse(reportToJson(report).toString());
    EXPECT_DOUBLE_EQ(json.at("topo_report").asNumber(), 1.0);
    ASSERT_EQ(json.at("layouts").size(), 2u);
    EXPECT_EQ(json.at("layouts")
                  .at(std::size_t{0})
                  .at("label")
                  .asString(),
              "overlapped");
}

TEST(AttributionTest, ObserversRejectCheckpointControl)
{
    const ConflictFixture fx;
    const Trace trace = fx.alternating(5);
    const FetchStream stream(fx.program, trace, 32);
    AttributionSink sink(fx.program, fx.layout, fx.cache, 32);
    SimObservers observers;
    observers.attribution = &sink;
    SimControl control;
    const TestTempDir tmp;
    control.checkpoint_path = tmp.file("unused.ckpt");
    control.checkpoint_every = 1;
    EXPECT_THROW(simulateLayout(fx.program, fx.layout, stream, fx.cache,
                                false, &control, &observers),
                 TopoError);
}

} // namespace
} // namespace topo