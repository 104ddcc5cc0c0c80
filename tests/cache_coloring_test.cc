/**
 * @file
 * Tests for the HKC cache-line-coloring implementation.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "topo/placement/cache_coloring.hh"
#include "topo/util/error.hh"
#include "topo/util/rng.hh"

namespace topo
{
namespace
{

struct HkcFixture
{
    Program program{"hkc"};
    WeightedGraph wcg{0};
    PlacementContext ctx;

    HkcFixture(std::size_t procs, std::uint32_t size,
               CacheConfig cache = CacheConfig::paperDefault())
    {
        for (std::size_t i = 0; i < procs; ++i)
            program.addProcedure("p" + std::to_string(i), size);
        wcg = WeightedGraph(procs);
        ctx.program = &program;
        ctx.cache = cache;
        ctx.wcg = &wcg;
    }

    std::uint32_t
    colorOf(const Layout &layout, ProcId id) const
    {
        return static_cast<std::uint32_t>(
            layout.startLine(id, ctx.cache.line_bytes) %
            ctx.cache.lineCount());
    }
};

/**
 * The per-line-pair walk accumulateColorCollisions replaced: one
 * modulo colour per line of p and of q, one += per colliding pair.
 */
void
pairwiseCollisions(std::vector<double> &cost, std::uint64_t p_start,
                   std::uint64_t p_len, std::uint64_t q_off,
                   std::uint64_t q_len, double weight)
{
    const std::uint64_t lines = cost.size();
    for (std::uint64_t lp = 0; lp < p_len; ++lp) {
        const std::uint64_t cp = (p_start + lp) % lines;
        for (std::uint64_t lq = 0; lq < q_len; ++lq) {
            const std::uint64_t qline = (q_off + lq) % lines;
            cost[(cp + lines - qline) % lines] += weight;
        }
    }
}

TEST(CacheColoring, CollisionKernelMatchesPairwiseWalk)
{
    // Random colours and lengths (down to zero, up past twice the
    // cache), several calls into one array as a unit merge makes, and
    // non-integral weights so the sums round: the arrays must agree
    // bit for bit.
    Rng rng(27);
    for (std::uint64_t lines : {12u, 16u, 256u}) {
        const int trials = lines == 256 ? 24 : 300;
        for (int trial = 0; trial < trials; ++trial) {
            std::vector<double> want(lines, 0.0), got(lines, 0.0);
            for (int call = 0; call < 4; ++call) {
                const std::uint64_t p_start = rng.nextBelow(4 * lines);
                const std::uint64_t p_len = rng.nextBelow(2 * lines + 3);
                const std::uint64_t q_off = rng.nextBelow(4 * lines);
                const std::uint64_t q_len = rng.nextBelow(2 * lines + 3);
                const double weight =
                    call == 0 ? static_cast<double>(1 + rng.nextBelow(9))
                              : 0.01 + rng.nextDouble() * 97.3;
                pairwiseCollisions(want, p_start, p_len, q_off, q_len,
                                   weight);
                accumulateColorCollisions(got, p_start, p_len, q_off,
                                          q_len, weight);
            }
            ASSERT_EQ(std::memcmp(want.data(), got.data(),
                                  lines * sizeof(double)),
                      0)
                << "lines " << lines << " trial " << trial;
        }
    }
}

TEST(CacheColoring, CallerCalleeDoNotOverlap)
{
    // Two procedures of half the cache each, calling each other: HKC
    // must colour them without overlap (adjacent placement suffices).
    HkcFixture fx(2, 4096); // 128 lines each, 256-line cache
    fx.wcg.addWeight(0, 1, 100.0);
    const CacheColoring hkc;
    const Layout layout = hkc.place(fx.ctx);
    layout.validate(fx.program, 32);
    const std::uint32_t c0 = fx.colorOf(layout, 0);
    const std::uint32_t c1 = fx.colorOf(layout, 1);
    // Colour ranges [c0, c0+128) and [c1, c1+128) mod 256 disjoint.
    const std::uint32_t distance = (c1 + 256 - c0) % 256;
    EXPECT_GE(distance, 128u);
}

TEST(CacheColoring, ThirdProcedureAvoidsBothNeighbours)
{
    // p0 and p1 occupy lines; p2 interacts with both and fits in the
    // remaining colours: no overlap should remain.
    HkcFixture fx(3, 2048); // 64 lines each, 256-line cache
    fx.wcg.addWeight(0, 1, 100.0);
    fx.wcg.addWeight(0, 2, 90.0);
    fx.wcg.addWeight(1, 2, 80.0);
    const CacheColoring hkc;
    const Layout layout = hkc.place(fx.ctx);
    layout.validate(fx.program, 32);
    auto overlap = [&](ProcId a, ProcId b) {
        const std::uint32_t ca = fx.colorOf(layout, a);
        const std::uint32_t cb = fx.colorOf(layout, b);
        std::uint32_t count = 0;
        for (std::uint32_t la = 0; la < 64; ++la) {
            for (std::uint32_t lb = 0; lb < 64; ++lb) {
                if ((ca + la) % 256 == (cb + lb) % 256)
                    ++count;
            }
        }
        return count;
    };
    EXPECT_EQ(overlap(0, 1), 0u);
    EXPECT_EQ(overlap(0, 2), 0u);
    EXPECT_EQ(overlap(1, 2), 0u);
}

TEST(CacheColoring, OnlyPopularColoured)
{
    HkcFixture fx(4, 1024);
    fx.wcg.addWeight(0, 1, 100.0);
    fx.wcg.addWeight(2, 3, 90.0); // cold pair: must not form a unit
    fx.ctx.popular = {true, true, false, false};
    fx.ctx.heat = {100.0, 90.0, 1.0, 1.0};
    const CacheColoring hkc;
    const Layout layout = hkc.place(fx.ctx);
    layout.validate(fx.program, 32);
    // Popular pair adjacent at the front; cold procedures appended.
    EXPECT_LT(layout.address(0), layout.address(2));
    EXPECT_LT(layout.address(1), layout.address(2));
}

TEST(CacheColoring, RequiresWcg)
{
    HkcFixture fx(2, 64);
    fx.ctx.wcg = nullptr;
    const CacheColoring hkc;
    EXPECT_THROW(hkc.place(fx.ctx), TopoError);
}

TEST(CacheColoring, ProcedureLargerThanCacheHandled)
{
    HkcFixture fx(2, 16384); // twice the cache size
    fx.wcg.addWeight(0, 1, 10.0);
    const CacheColoring hkc;
    const Layout layout = hkc.place(fx.ctx);
    layout.validate(fx.program, 32);
}

/** Property: valid layouts for random popular graphs. */
class HkcPropertyTest : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(HkcPropertyTest, RandomGraphsYieldValidLayouts)
{
    Rng rng(GetParam());
    const std::size_t procs = 24;
    Program program("hkc");
    for (std::size_t i = 0; i < procs; ++i) {
        program.addProcedure(
            "p" + std::to_string(i),
            32 + static_cast<std::uint32_t>(rng.nextBelow(3000)));
    }
    WeightedGraph wcg(procs);
    for (int e = 0; e < 50; ++e) {
        const BlockId u = static_cast<BlockId>(rng.nextBelow(procs));
        const BlockId v = static_cast<BlockId>(rng.nextBelow(procs));
        if (u != v)
            wcg.addWeight(u, v, 1.0 + rng.nextBelow(500));
    }
    PlacementContext ctx;
    ctx.program = &program;
    ctx.cache = CacheConfig::paperDefault();
    ctx.wcg = &wcg;
    ctx.popular.assign(procs, false);
    ctx.heat.assign(procs, 0.0);
    for (std::size_t i = 0; i < procs; ++i) {
        ctx.popular[i] = rng.nextBool(0.6);
        ctx.heat[i] = static_cast<double>(rng.nextBelow(10000));
    }
    const CacheColoring hkc;
    const Layout layout = hkc.place(ctx);
    layout.validate(program, 32);
}

INSTANTIATE_TEST_SUITE_P(Seeds, HkcPropertyTest,
                         ::testing::Values(11u, 12u, 13u, 14u, 15u));

} // namespace
} // namespace topo
