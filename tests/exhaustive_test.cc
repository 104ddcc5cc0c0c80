/**
 * @file
 * Tests for the exhaustive placement oracle, including optimality
 * checks of the greedy algorithms on small instances.
 */

#include <gtest/gtest.h>

#include "topo/eval/experiment.hh"
#include "topo/util/rng.hh"
#include "topo/placement/exhaustive.hh"
#include "topo/placement/gbsc.hh"
#include "topo/profile/trg_builder.hh"
#include "topo/util/error.hh"
#include "topo/workload/figure1.hh"

namespace topo
{
namespace
{

TEST(Exhaustive, FindsZeroConflictLayoutWhenOneExists)
{
    // Three one-line procedures, 4-line cache: a zero-metric layout
    // exists and the oracle must find one.
    Program p("e");
    p.addProcedure("a", 32);
    p.addProcedure("b", 32);
    p.addProcedure("c", 32);
    const ChunkMap chunks(p, 32);
    WeightedGraph place(chunks.chunkCount());
    place.addWeight(0, 1, 5.0);
    place.addWeight(1, 2, 4.0);
    place.addWeight(0, 2, 3.0);
    PlacementContext ctx;
    ctx.program = &p;
    ctx.cache = CacheConfig{128, 32, 1};
    ctx.chunks = &chunks;
    ctx.trg_place = &place;
    const ExhaustivePlacement oracle(
        ExhaustivePlacement::Objective::TrgMetric);
    const Layout layout = oracle.place(ctx);
    layout.validate(p, 32);
    EXPECT_DOUBLE_EQ(oracle.bestObjective(), 0.0);
}

TEST(Exhaustive, MinimisesForcedOverlapWeight)
{
    // Two-line cache, three one-line procedures: some overlap is
    // inevitable; the oracle must pay only the lightest edge.
    Program p("e");
    p.addProcedure("a", 32);
    p.addProcedure("b", 32);
    p.addProcedure("c", 32);
    const ChunkMap chunks(p, 32);
    WeightedGraph place(chunks.chunkCount());
    place.addWeight(0, 1, 50.0);
    place.addWeight(1, 2, 40.0);
    place.addWeight(0, 2, 3.0);
    PlacementContext ctx;
    ctx.program = &p;
    ctx.cache = CacheConfig{64, 32, 1};
    ctx.chunks = &chunks;
    ctx.trg_place = &place;
    const ExhaustivePlacement oracle(
        ExhaustivePlacement::Objective::TrgMetric);
    oracle.place(ctx);
    EXPECT_DOUBLE_EQ(oracle.bestObjective(), 3.0);
}

TEST(Exhaustive, SimulatedObjectiveMatchesCacheGroundTruth)
{
    // The Figure 1 example: the simulated-misses oracle on trace #2
    // must reach the 4-miss layout (X,Y share; Z alone).
    const Figure1Example ex = makeFigure1Example();
    const Trace t2 = ex.trace2();
    const FetchStream stream(ex.program, t2, ex.cache.line_bytes);
    PlacementContext ctx;
    ctx.program = &ex.program;
    ctx.cache = ex.cache;
    const ExhaustivePlacement oracle(
        ExhaustivePlacement::Objective::SimulatedMisses, &stream);
    const Layout layout = oracle.place(ctx);
    layout.validate(ex.program, ex.cache.line_bytes);
    EXPECT_DOUBLE_EQ(oracle.bestObjective(), 4.0);
}

TEST(Exhaustive, GbscMatchesOracleOnFigure1)
{
    // GBSC's greedy result must equal the oracle's miss count on both
    // Figure 1 traces — the strongest small-case quality statement.
    const Figure1Example ex = makeFigure1Example();
    const ChunkMap chunks(ex.program, 32);
    TrgBuildOptions topts;
    topts.byte_budget = 2 * ex.cache.size_bytes;
    for (const Trace &trace : {ex.trace1(), ex.trace2()}) {
        const FetchStream stream(ex.program, trace,
                                 ex.cache.line_bytes);
        const ExhaustivePlacement oracle(
            ExhaustivePlacement::Objective::SimulatedMisses, &stream);
        PlacementContext octx;
        octx.program = &ex.program;
        octx.cache = ex.cache;
        oracle.place(octx);

        const TrgBuildResult trg =
            buildTrgs(ex.program, chunks, trace, topts);
        PlacementContext gctx;
        gctx.program = &ex.program;
        gctx.cache = ex.cache;
        gctx.chunks = &chunks;
        gctx.trg_select = &trg.select;
        gctx.trg_place = &trg.place;
        const Gbsc gbsc;
        const Layout layout = gbsc.place(gctx);
        const double gbsc_misses = static_cast<double>(
            simulateLayout(ex.program, layout, stream, ex.cache)
                .misses);
        EXPECT_DOUBLE_EQ(gbsc_misses, oracle.bestObjective());
    }
}

/**
 * Property: GBSC lands within a small factor of the metric-optimal
 * layout on random tiny instances (and at 0 whenever 0 is reachable).
 */
class GbscVsOracleTest : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(GbscVsOracleTest, GreedyNearOptimalOnTinyInstances)
{
    Rng rng(GetParam());
    Program p("tiny");
    const int procs = 5;
    for (int i = 0; i < procs; ++i) {
        p.addProcedure(std::string("p").append(std::to_string(i)),
                       32 + 32 * static_cast<std::uint32_t>(
                                     rng.nextBelow(3)));
    }
    const CacheConfig cache{
        static_cast<std::uint32_t>(32 * (6 + rng.nextBelow(5))), 32, 1};
    const ChunkMap chunks(p, 32);
    WeightedGraph select(procs);
    WeightedGraph place(chunks.chunkCount());
    for (int e = 0; e < 8; ++e) {
        const BlockId u = static_cast<BlockId>(rng.nextBelow(procs));
        const BlockId v = static_cast<BlockId>(rng.nextBelow(procs));
        if (u == v)
            continue;
        const double w = 1.0 + rng.nextBelow(50);
        select.addWeight(u, v, w);
        place.addWeight(
            chunks.chunkId(u, rng.nextBelow(chunks.chunksOf(u))),
            chunks.chunkId(v, rng.nextBelow(chunks.chunksOf(v))), w);
    }
    PlacementContext ctx;
    ctx.program = &p;
    ctx.cache = cache;
    ctx.chunks = &chunks;
    ctx.trg_select = &select;
    ctx.trg_place = &place;

    ExhaustiveOptions limits;
    limits.max_combinations = 200000000;
    const ExhaustivePlacement oracle(
        ExhaustivePlacement::Objective::TrgMetric, nullptr, limits);
    oracle.place(ctx);
    const double optimal = oracle.bestObjective();

    const Gbsc gbsc;
    const Layout layout = gbsc.place(ctx);
    const double greedy = Gbsc::conflictMetric(
        ctx, layoutOffsets(p, layout, cache));
    if (optimal == 0.0) {
        EXPECT_DOUBLE_EQ(greedy, 0.0) << "seed " << GetParam();
    } else {
        EXPECT_LE(greedy, optimal * 2.0) << "seed " << GetParam();
    }
    EXPECT_GE(greedy, optimal); // the oracle is a true lower bound
}

INSTANTIATE_TEST_SUITE_P(Seeds, GbscVsOracleTest,
                         ::testing::Values(101u, 102u, 103u, 104u,
                                           105u, 106u));

TEST(Exhaustive, GuardsRejectLargeSearches)
{
    Program p("big");
    for (int i = 0; i < 12; ++i)
        p.addProcedure(std::string("p").append(std::to_string(i)), 32);
    const ChunkMap chunks(p, 32);
    WeightedGraph place(chunks.chunkCount());
    PlacementContext ctx;
    ctx.program = &p;
    ctx.cache = CacheConfig::paperDefault();
    ctx.chunks = &chunks;
    ctx.trg_place = &place;
    const ExhaustivePlacement oracle(
        ExhaustivePlacement::Objective::TrgMetric);
    EXPECT_THROW(oracle.place(ctx), TopoError); // max_procs exceeded

    ExhaustiveOptions narrow;
    narrow.max_procs = 8;
    narrow.max_combinations = 100;
    Program small("s");
    for (int i = 0; i < 4; ++i)
        small.addProcedure(std::string("p").append(std::to_string(i)),
                           32);
    const ChunkMap small_chunks(small, 32);
    WeightedGraph small_place(small_chunks.chunkCount());
    PlacementContext sctx;
    sctx.program = &small;
    sctx.cache = CacheConfig::paperDefault(); // 256^3 combinations
    sctx.chunks = &small_chunks;
    sctx.trg_place = &small_place;
    const ExhaustivePlacement guarded(
        ExhaustivePlacement::Objective::TrgMetric, nullptr, narrow);
    EXPECT_THROW(guarded.place(sctx), TopoError);
}

TEST(Exhaustive, SimulatedNeedsStream)
{
    EXPECT_THROW(ExhaustivePlacement(
                     ExhaustivePlacement::Objective::SimulatedMisses),
                 TopoError);
}

TEST(Exhaustive, SingleProcedureTrivial)
{
    Program p("one");
    p.addProcedure("only", 100);
    const ChunkMap chunks(p, 256);
    WeightedGraph place(chunks.chunkCount());
    PlacementContext ctx;
    ctx.program = &p;
    ctx.cache = CacheConfig{128, 32, 1};
    ctx.chunks = &chunks;
    ctx.trg_place = &place;
    const ExhaustivePlacement oracle(
        ExhaustivePlacement::Objective::TrgMetric);
    const Layout layout = oracle.place(ctx);
    layout.validate(p, 32);
    EXPECT_DOUBLE_EQ(oracle.bestObjective(), 0.0);
}

} // namespace
} // namespace topo
