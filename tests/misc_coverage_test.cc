/**
 * @file
 * Cross-cutting coverage: environment-variable options, the
 * measure-on-train comparison path, empty-input behaviour, conflict
 * metric properties under offset sweeps, and Section 4.3 gap-formula
 * arithmetic as exposed through Layout::fromCacheOffsets.
 */

#include <gtest/gtest.h>

#include <cstdlib>

#include "topo/eval/conflict_metric.hh"
#include "topo/eval/experiment.hh"
#include "topo/placement/gbsc.hh"
#include "topo/trace/trace_stats.hh"
#include "topo/util/options.hh"
#include "topo/workload/synthetic_program.hh"

namespace topo
{
namespace
{

TEST(OptionsEnv, EnvironmentBackfillsAndCliWins)
{
    ::setenv("TOPO_COVERAGE_PROBE", "0.5", 1);
    Options opts;
    EXPECT_TRUE(opts.has("coverage-probe"));
    EXPECT_DOUBLE_EQ(opts.getDouble("coverage-probe", 1.0), 0.5);
    opts.set("coverage-probe", "0.25");
    EXPECT_DOUBLE_EQ(opts.getDouble("coverage-probe", 1.0), 0.25);
    ::unsetenv("TOPO_COVERAGE_PROBE");
    EXPECT_DOUBLE_EQ(opts.getDouble("coverage-probe", 1.0), 0.25);
}

TEST(TraceStatsEdge, EmptyTrace)
{
    Program p("e");
    p.addProcedure("f", 64);
    const Trace t(1);
    const TraceStats stats = computeTraceStats(p, t);
    EXPECT_EQ(stats.total_runs, 0u);
    EXPECT_EQ(stats.total_bytes, 0u);
    EXPECT_EQ(stats.procsTouched(), 0u);
}

/** Conflict metric is invariant under a global rotation of offsets. */
class MetricRotationTest : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(MetricRotationTest, GlobalRotationInvariant)
{
    const std::uint32_t rotation = GetParam();
    Program p("m");
    p.addProcedure("a", 96);
    p.addProcedure("b", 64);
    p.addProcedure("c", 160);
    const ChunkMap chunks(p, 64);
    WeightedGraph place(chunks.chunkCount());
    place.addWeight(chunks.chunkId(0, 0), chunks.chunkId(1, 0), 5.0);
    place.addWeight(chunks.chunkId(1, 0), chunks.chunkId(2, 1), 2.0);
    place.addWeight(chunks.chunkId(0, 1), chunks.chunkId(2, 2), 7.0);
    PlacementContext ctx;
    ctx.program = &p;
    ctx.cache = CacheConfig{512, 32, 1}; // 16 lines
    ctx.chunks = &chunks;
    ctx.trg_place = &place;
    const std::vector<std::uint32_t> base{3, 9, 14};
    std::vector<std::uint32_t> rotated(base);
    for (auto &o : rotated)
        o = (o + rotation) % 16;
    EXPECT_DOUBLE_EQ(Gbsc::conflictMetric(ctx, base),
                     Gbsc::conflictMetric(ctx, rotated));
}

INSTANTIATE_TEST_SUITE_P(Rotations, MetricRotationTest,
                         ::testing::Values(0u, 1u, 5u, 15u));

TEST(MetricProperties, ZeroWhenNoLineShared)
{
    Program p("m");
    p.addProcedure("a", 64); // 2 lines
    p.addProcedure("b", 64); // 2 lines
    const ChunkMap chunks(p, 64);
    WeightedGraph place(chunks.chunkCount());
    place.addWeight(0, 1, 100.0);
    PlacementContext ctx;
    ctx.program = &p;
    ctx.cache = CacheConfig{256, 32, 1}; // 8 lines
    ctx.chunks = &chunks;
    ctx.trg_place = &place;
    for (std::uint32_t gap = 2; gap <= 6; ++gap) {
        EXPECT_DOUBLE_EQ(Gbsc::conflictMetric(ctx, {0, gap}), 0.0)
            << "gap " << gap;
    }
    EXPECT_GT(Gbsc::conflictMetric(ctx, {0, 0}), 0.0);
    EXPECT_GT(Gbsc::conflictMetric(ctx, {0, 1}), 0.0); // partial
}

TEST(GapFormula, FromCacheOffsetsUsesSmallestNonNegativeGap)
{
    // The Section 4.3 gap formula is (q_SL - p_EL) mod N; verify the
    // realisation inserts exactly that many lines.
    Program p("g");
    p.addProcedure("first", 96);  // 3 lines, ends at line 3
    p.addProcedure("wrap", 32);   // target offset 1 -> gap 6 (mod 8)
    p.addProcedure("tight", 32);  // placed right after wrap
    const Layout layout =
        Layout::fromCacheOffsets(p, {0, 1, 2}, {0, 1, 2}, 32, 8);
    EXPECT_EQ(layout.address(0), 0u);
    // first ends at line 3; wrap wants offset 1: gap = (1-3) mod 8 = 6
    EXPECT_EQ(layout.startLine(1, 32), 9u);
    // wrap ends at line 10; tight wants offset 2: gap = (2-10) mod 8=0
    EXPECT_EQ(layout.startLine(2, 32), 10u);
}

TEST(RunComparison, MeasureOnTrainOption)
{
    SyntheticSpec spec;
    spec.name = "train-measure";
    spec.proc_count = 30;
    spec.total_bytes = 60 * 1024;
    spec.popular_count = 10;
    spec.popular_bytes = 20 * 1024;
    spec.phase_count = 2;
    spec.ranks = 2;
    spec.seed = 3;
    BenchmarkCase bench;
    bench.name = spec.name;
    bench.model = buildSyntheticWorkload(spec);
    bench.train.target_runs = 8000;
    bench.train.seed = 1;
    bench.test.target_runs = 8000;
    bench.test.seed = 2;
    EvalOptions eopts;
    eopts.cache = CacheConfig{2048, 32, 1};
    const ProfileBundle bundle(bench, eopts);
    const Gbsc gbsc;
    ComparisonOptions train_opts, test_opts;
    train_opts.repetitions = test_opts.repetitions = 1;
    train_opts.measure_on_train = true;
    const auto on_train = runComparison(bundle, {&gbsc}, train_opts);
    const auto on_test = runComparison(bundle, {&gbsc}, test_opts);
    // Distinct inputs: the measured numbers must differ.
    EXPECT_NE(on_train[0].unperturbed, on_test[0].unperturbed);
    // And the train measurement must match the direct API.
    const PlacementContext ctx = bundle.makeContext();
    EXPECT_DOUBLE_EQ(on_train[0].unperturbed,
                     bundle.trainMissRate(gbsc.place(ctx)));
}

TEST(WcgMetric, CountsProcedurePairsPerLine)
{
    Program p("w");
    p.addProcedure("a", 64); // 2 lines
    p.addProcedure("b", 64);
    const ChunkMap chunks(p, 256);
    WeightedGraph wcg(2);
    wcg.addWeight(0, 1, 10.0);
    WeightedGraph place(chunks.chunkCount());
    PlacementContext ctx;
    ctx.program = &p;
    ctx.cache = CacheConfig{128, 32, 1}; // 4 lines
    ctx.chunks = &chunks;
    ctx.wcg = &wcg;
    ctx.trg_place = &place;
    // Fully overlapped: both lines collide -> 2 * 10.
    const Layout overlapped =
        Layout::fromCacheOffsets(p, {0, 1}, {0, 0}, 32, 4);
    EXPECT_DOUBLE_EQ(wcgConflictMetric(ctx, overlapped), 20.0);
    const Layout disjoint =
        Layout::fromCacheOffsets(p, {0, 1}, {0, 2}, 32, 4);
    EXPECT_DOUBLE_EQ(wcgConflictMetric(ctx, disjoint), 0.0);
}

} // namespace
} // namespace topo
