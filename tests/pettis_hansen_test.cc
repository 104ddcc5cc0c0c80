/**
 * @file
 * Tests for the Pettis-Hansen implementation (Section 2).
 */

#include <gtest/gtest.h>

#include "topo/placement/pettis_hansen.hh"
#include "topo/profile/wcg_builder.hh"
#include "topo/util/error.hh"
#include "topo/util/rng.hh"

namespace topo
{
namespace
{

struct PhFixture
{
    Program program{"ph"};
    WeightedGraph wcg{0};
    PlacementContext ctx;

    explicit PhFixture(std::size_t procs, std::uint32_t size = 64)
    {
        for (std::size_t i = 0; i < procs; ++i)
            program.addProcedure(std::string("p").append(std::to_string(i)),
                                 size);
        wcg = WeightedGraph(procs);
        ctx.program = &program;
        ctx.cache = CacheConfig::paperDefault();
        ctx.wcg = &wcg;
    }
};

TEST(PettisHansen, HeaviestPairBecomesAdjacent)
{
    PhFixture fx(4);
    fx.wcg.addWeight(0, 1, 100.0);
    fx.wcg.addWeight(2, 3, 1.0);
    const PettisHansen ph;
    const Layout layout = ph.place(fx.ctx);
    layout.validate(fx.program, 32);
    const std::uint64_t a0 = layout.address(0);
    const std::uint64_t a1 = layout.address(1);
    // 64-byte procedures, line-aligned: adjacency means 64 bytes apart.
    EXPECT_EQ(a0 < a1 ? a1 - a0 : a0 - a1, 64u);
}

TEST(PettisHansen, ChainOrientationMinimisesDistance)
{
    // Chain A = [0 1 2] built by weights 0-1 and 1-2; then procedure 3
    // attaches via an edge to 0. The merged chain must place 3 next to
    // 0, which requires reversing A (or prepending), not appending.
    PhFixture fx(4);
    fx.wcg.addWeight(0, 1, 100.0);
    fx.wcg.addWeight(1, 2, 90.0);
    fx.wcg.addWeight(0, 3, 50.0);
    const PettisHansen ph;
    const Layout layout = ph.place(fx.ctx);
    layout.validate(fx.program, 32);
    const std::uint64_t d03 =
        layout.address(0) < layout.address(3)
            ? layout.address(3) - layout.address(0)
            : layout.address(0) - layout.address(3);
    EXPECT_EQ(d03, 64u) << "3 must end up adjacent to 0";
}

TEST(PettisHansen, TransitiveMergeKeepsHeavyNeighbourhoodsClose)
{
    PhFixture fx(6);
    fx.wcg.addWeight(0, 1, 100.0);
    fx.wcg.addWeight(2, 3, 80.0);
    fx.wcg.addWeight(1, 2, 60.0);
    const PettisHansen ph;
    const Layout layout = ph.place(fx.ctx);
    layout.validate(fx.program, 32);
    // The four connected procedures form one chain; 1 and 2 adjacent.
    const std::uint64_t d12 =
        layout.address(1) < layout.address(2)
            ? layout.address(2) - layout.address(1)
            : layout.address(1) - layout.address(2);
    EXPECT_EQ(d12, 64u);
}

TEST(PettisHansen, IsolatedProceduresStillPlaced)
{
    PhFixture fx(5);
    fx.wcg.addWeight(0, 1, 10.0);
    const PettisHansen ph;
    const Layout layout = ph.place(fx.ctx);
    layout.validate(fx.program, 32); // validate checks completeness
}

TEST(PettisHansen, RequiresWcg)
{
    PhFixture fx(2);
    fx.ctx.wcg = nullptr;
    const PettisHansen ph;
    EXPECT_THROW(ph.place(fx.ctx), TopoError);
}

TEST(PettisHansen, EndToEndFromTrace)
{
    // f alternates with g heavily and with h rarely: PH must place
    // f adjacent to g.
    Program p("ph");
    const ProcId f = p.addProcedure("f", 64);
    const ProcId g = p.addProcedure("g", 64);
    const ProcId filler = p.addProcedure("filler", 64);
    const ProcId h = p.addProcedure("h", 64);
    Trace t(p.procCount());
    for (int i = 0; i < 100; ++i) {
        t.append(f, 0, 64);
        t.append(g, 0, 64);
    }
    t.append(filler, 0, 64);
    t.append(f, 0, 64);
    t.append(h, 0, 64);
    const WeightedGraph wcg = buildWcg(p, t);
    PlacementContext ctx;
    ctx.program = &p;
    ctx.cache = CacheConfig::paperDefault();
    ctx.wcg = &wcg;
    const PettisHansen ph;
    const Layout layout = ph.place(ctx);
    layout.validate(p, 32);
    const std::uint64_t dfg = layout.address(f) < layout.address(g)
                                  ? layout.address(g) - layout.address(f)
                                  : layout.address(f) - layout.address(g);
    EXPECT_EQ(dfg, 64u);
}

/** Property: PH always yields complete, overlap-free layouts. */
class PhPropertyTest : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(PhPropertyTest, RandomGraphsYieldValidLayouts)
{
    Rng rng(GetParam());
    const std::size_t procs = 20;
    PhFixture fx(procs, 96);
    for (int e = 0; e < 40; ++e) {
        const BlockId u = static_cast<BlockId>(rng.nextBelow(procs));
        const BlockId v = static_cast<BlockId>(rng.nextBelow(procs));
        if (u != v)
            fx.wcg.addWeight(u, v, 1.0 + rng.nextBelow(1000));
    }
    const PettisHansen ph;
    const Layout layout = ph.place(fx.ctx);
    layout.validate(fx.program, 32);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PhPropertyTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u));

} // namespace
} // namespace topo
