/**
 * @file
 * Tests of the taxonomy sink: hand-computed 3C classification on tiny
 * traces (pure-conflict ping-pong, pure-capacity streaming, an
 * all-compulsory cold run), a differential check of the Olken
 * order-statistic tree against a naive O(n) stack-distance reference,
 * disabled-observer result/allocation parity mirroring
 * attribution_test, per-window invariants, and the comparison-report
 * and artifact-validation surfaces built on top.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <sstream>

#include "topo/cache/simulate.hh"
#include "topo/cache/taxonomy.hh"
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
    EXPECT_EQ(hist[TaxonomySink::bucketOf(1)], 2u * kRounds - 2);

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
    EXPECT_EQ(sink.reuseHistogram()[TaxonomySink::bucketOf(3)],
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

TEST(TaxonomyTest, OrderStatTreeMatchesNaiveReference)
{
    // Drive the tree through the exact op mix Olken's algorithm
    // performs — countGreater(old), erase(old), insert(new with a
    // monotonically increasing key) — and compare every count against
    // a sorted-vector reference.
    OrderStatTree tree;
    std::vector<std::uint64_t> reference; // sorted ascending

    std::uint64_t state = 0x243f6a8885a308d3ull; // deterministic rng
    auto next_rand = [&state]() {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        return state >> 33;
    };

    std::uint64_t now = 0;
    std::vector<std::uint64_t> live;
    for (int step = 0; step < 5000; ++step) {
        if (!live.empty() && next_rand() % 2 == 0) {
            const std::size_t pick = next_rand() % live.size();
            const std::uint64_t key = live[pick];
            const auto it = std::lower_bound(reference.begin(),
                                             reference.end(), key);
            const std::uint64_t expected = static_cast<std::uint64_t>(
                reference.end() - it - 1);
            ASSERT_EQ(tree.countGreater(key), expected);
            tree.erase(key);
            reference.erase(it);
            live.erase(live.begin() +
                       static_cast<std::ptrdiff_t>(pick));
        } else {
            ++now;
            tree.insert(now);
            reference.push_back(now); // keys ascend: stays sorted
            live.push_back(now);
        }
        ASSERT_EQ(tree.size(), reference.size());
    }
}

TEST(TaxonomyTest, ReuseHistogramMatchesNaiveStackDistance)
{
    // Differential check at the sink level: a naive LRU stack (O(n)
    // per access) classifies a pseudo-random access stream; the sink's
    // Olken-tree histogram and 3C tallies must match bucket for
    // bucket.
    const std::uint32_t kLines = 150;
    Program program{"rand"};
    program.addProcedure("R", kLines * 32);
    const CacheConfig cache{8 * 32, 32, 1}; // 8-line shadow

    TaxonomySink sink(program, kLines, cache);
    std::array<std::uint64_t, kReuseBucketCount> naive_hist{};
    std::uint64_t naive_compulsory = 0, naive_capacity = 0,
                  naive_conflict = 0;
    std::vector<std::uint32_t> stack; // most recent first

    std::uint64_t state = 0x13198a2e03707344ull;
    auto next_rand = [&state]() {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        return state >> 33;
    };

    for (int step = 0; step < 10000; ++step) {
        // Skewed line choice so some lines re-reference at short
        // distances and others stream; alternate hit/miss claims to
        // exercise every classification path.
        const std::uint32_t line = static_cast<std::uint32_t>(
            next_rand() % (step % 3 == 0 ? kLines : 16));
        const bool real_hit = next_rand() % 4 == 0;
        const TaxonomyEvent event = sink.record(0, line, real_hit);

        const auto it = std::find(stack.begin(), stack.end(), line);
        std::size_t naive_bucket;
        if (it == stack.end()) {
            naive_bucket = kReuseColdBucket;
            if (!real_hit)
                ++naive_compulsory;
        } else {
            const std::uint64_t distance =
                static_cast<std::uint64_t>(it - stack.begin());
            naive_bucket = TaxonomySink::bucketOf(distance);
            if (!real_hit) {
                if (distance < cache.lineCount())
                    ++naive_conflict;
                else
                    ++naive_capacity;
            }
            stack.erase(it);
        }
        stack.insert(stack.begin(), line);
        ++naive_hist[naive_bucket];
        ASSERT_EQ(event.reuse_bucket, naive_bucket) << "step " << step;
    }

    EXPECT_EQ(sink.compulsory(), naive_compulsory);
    EXPECT_EQ(sink.capacity(), naive_capacity);
    EXPECT_EQ(sink.conflict(), naive_conflict);
    for (std::size_t b = 0; b < kReuseBucketCount; ++b)
        EXPECT_EQ(sink.reuseHistogram()[b], naive_hist[b])
            << "bucket " << b;
}

TEST(TaxonomyTest, Log2BucketsAndMetricNames)
{
    EXPECT_EQ(TaxonomySink::bucketOf(0), 0);
    EXPECT_EQ(TaxonomySink::bucketOf(1), 1);
    EXPECT_EQ(TaxonomySink::bucketOf(2), 2);
    EXPECT_EQ(TaxonomySink::bucketOf(3), 2);
    EXPECT_EQ(TaxonomySink::bucketOf(4), 3);
    EXPECT_EQ(TaxonomySink::bucketOf(7), 3);
    EXPECT_EQ(TaxonomySink::bucketOf(8), 4);
    EXPECT_EQ(TaxonomySink::bucketOf(~std::uint64_t{0}), 32);
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

    // Warm up registry entries, then compare: the 40x stream re-uses
    // the tree's free list for every erase/insert cycle, so only the
    // timeline's window vector may grow.
    count_allocs(small_stream);
    const std::uint64_t small_allocs = count_allocs(small_stream);
    const std::uint64_t big_allocs = count_allocs(big_stream);
    EXPECT_LE(big_allocs, small_allocs + 32);
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
