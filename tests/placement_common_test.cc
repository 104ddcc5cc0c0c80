/**
 * @file
 * Tests for popularity selection, the gap filler, the baseline
 * placements, and the tools' placement table.
 */

#include <gtest/gtest.h>

#include "topo/placement/gap_fill.hh"
#include "topo/placement/placement.hh"
#include "topo/placement/placement_table.hh"
#include "topo/placement/popularity.hh"
#include "topo/util/error.hh"

namespace topo
{
namespace
{

Program
heatProgram()
{
    Program p("pop");
    p.addProcedure("hot1", 100);
    p.addProcedure("cold1", 100);
    p.addProcedure("hot2", 100);
    p.addProcedure("untouched", 100);
    return p;
}

TraceStats
statsFor(const Program &p, std::vector<std::uint64_t> bytes)
{
    TraceStats stats;
    stats.bytes_fetched = std::move(bytes);
    stats.run_count.assign(p.procCount(), 1);
    for (std::uint64_t b : stats.bytes_fetched)
        stats.total_bytes += b;
    stats.total_runs = p.procCount();
    return stats;
}

TEST(Popularity, CoveragePrefix)
{
    const Program p = heatProgram();
    const TraceStats stats = statsFor(p, {9000, 50, 900, 0});
    PopularityOptions opts;
    opts.coverage = 0.99; // 9000+900 = 99.4% of 9950
    const PopularSet set = selectPopular(p, stats, opts);
    EXPECT_TRUE(set.mask[0]);
    EXPECT_TRUE(set.mask[2]);
    EXPECT_FALSE(set.mask[1]);
    EXPECT_FALSE(set.mask[3]);
    EXPECT_EQ(set.count, 2u);
    EXPECT_EQ(set.bytes, 200u);
    EXPECT_NEAR(set.covered, 9900.0 / 9950.0, 1e-12);
}

TEST(Popularity, UntouchedNeverPopular)
{
    const Program p = heatProgram();
    const TraceStats stats = statsFor(p, {10, 10, 10, 0});
    PopularityOptions opts;
    opts.coverage = 1.0;
    const PopularSet set = selectPopular(p, stats, opts);
    EXPECT_EQ(set.count, 3u);
    EXPECT_FALSE(set.mask[3]);
}

TEST(Popularity, MaxProcsCaps)
{
    const Program p = heatProgram();
    const TraceStats stats = statsFor(p, {100, 90, 80, 70});
    PopularityOptions opts;
    opts.coverage = 1.0;
    opts.max_procs = 2;
    const PopularSet set = selectPopular(p, stats, opts);
    EXPECT_EQ(set.count, 2u);
    EXPECT_TRUE(set.mask[0]);
    EXPECT_TRUE(set.mask[1]);
}

TEST(Popularity, BadCoverageRejected)
{
    const Program p = heatProgram();
    const TraceStats stats = statsFor(p, {1, 1, 1, 1});
    PopularityOptions opts;
    opts.coverage = 0.0;
    EXPECT_THROW(selectPopular(p, stats, opts), TopoError);
}

TEST(GapFiller, BestFitLargestFirst)
{
    Program p("gf");
    const ProcId small = p.addProcedure("small", 32);  // 1 line
    const ProcId mid = p.addProcedure("mid", 96);      // 3 lines
    const ProcId large = p.addProcedure("large", 160); // 5 lines
    GapFiller filler(p, {small, mid, large}, 32);
    const auto placed = filler.fill(4);
    // Best fit: mid (3 lines) then small (1 line).
    ASSERT_EQ(placed.size(), 2u);
    EXPECT_EQ(placed[0].first, mid);
    EXPECT_EQ(placed[0].second, 0u);
    EXPECT_EQ(placed[1].first, small);
    EXPECT_EQ(placed[1].second, 3u);
    const auto rest = filler.remaining();
    ASSERT_EQ(rest.size(), 1u);
    EXPECT_EQ(rest[0], large);
}

TEST(GapFiller, NothingFitsLeavesGap)
{
    Program p("gf");
    const ProcId big = p.addProcedure("big", 320); // 10 lines
    GapFiller filler(p, {big}, 32);
    EXPECT_TRUE(filler.fill(4).empty());
    EXPECT_EQ(filler.remaining().size(), 1u);
}

TEST(GapFiller, ConsumesEachProcOnce)
{
    Program p("gf");
    const ProcId a = p.addProcedure("a", 32);
    GapFiller filler(p, {a}, 32);
    EXPECT_EQ(filler.fill(1).size(), 1u);
    EXPECT_TRUE(filler.fill(10).empty());
    EXPECT_TRUE(filler.remaining().empty());
}

PlacementContext
contextFor(const Program &p, const CacheConfig &cache)
{
    PlacementContext ctx;
    ctx.program = &p;
    ctx.cache = cache;
    return ctx;
}

TEST(DefaultPlacement, MatchesLayoutDefaultOrder)
{
    const Program p = heatProgram();
    const CacheConfig cache = CacheConfig::paperDefault();
    const DefaultPlacement algo;
    const Layout layout = algo.place(contextFor(p, cache));
    layout.validate(p, cache.line_bytes);
    const Layout expected = Layout::defaultOrder(p, cache.line_bytes);
    for (ProcId i = 0; i < p.procCount(); ++i)
        EXPECT_EQ(layout.address(i), expected.address(i));
    EXPECT_EQ(algo.name(), "default");
}

TEST(RandomPlacement, ValidAndSeedDeterministic)
{
    const Program p = heatProgram();
    const CacheConfig cache = CacheConfig::paperDefault();
    const RandomPlacement a(7), b(7), c(8);
    const Layout la = a.place(contextFor(p, cache));
    const Layout lb = b.place(contextFor(p, cache));
    const Layout lc = c.place(contextFor(p, cache));
    la.validate(p, cache.line_bytes);
    lc.validate(p, cache.line_bytes);
    bool same_as_a = true, same_as_c = true;
    for (ProcId i = 0; i < p.procCount(); ++i) {
        same_as_a &= la.address(i) == lb.address(i);
        same_as_c &= la.address(i) == lc.address(i);
    }
    EXPECT_TRUE(same_as_a);
    EXPECT_FALSE(same_as_c);
}

TEST(PlacementContext, HelpersAndChecks)
{
    const Program p = heatProgram();
    PlacementContext ctx = contextFor(p, CacheConfig::paperDefault());
    EXPECT_TRUE(ctx.isPopular(0)); // empty mask: everything popular
    ctx.popular = {true, false, true, false};
    EXPECT_FALSE(ctx.isPopular(1));
    EXPECT_DOUBLE_EQ(ctx.heatOf(0), 0.0);
    ctx.heat = {5.0, 1.0, 3.0, 0.0};
    EXPECT_DOUBLE_EQ(ctx.heatOf(2), 3.0);
    const auto order = procsByHeat(ctx);
    EXPECT_EQ(order, (std::vector<ProcId>{0, 2, 1, 3}));

    PlacementContext broken;
    EXPECT_THROW(broken.requireBasics("test"), TopoError);
}

TEST(PlacementTable, NamesOrderAndDisplayNames)
{
    const char *const names[] = {"default", "ph", "hkc", "gbsc"};
    const char *const displays[] = {"default", "PH", "HKC", "GBSC"};
    ASSERT_EQ(std::size(kPlacementTable), 4u);
    for (std::size_t i = 0; i < 4; ++i) {
        const PlacementEntry &entry = kPlacementTable[i];
        EXPECT_STREQ(entry.name, names[i]);
        EXPECT_STREQ(entry.display, displays[i]);
        EXPECT_EQ(entry.algorithm.name(), entry.display);
        EXPECT_STRNE(entry.description, "");
        EXPECT_EQ(&placementEntry(names[i]), &entry);
    }
}

TEST(PlacementTable, UnknownNameIsOneUsageError)
{
    for (const char *name : {"bogus", "GBSC", "", "random", "gbsc-sa"}) {
        try {
            placementEntry(name);
            ADD_FAILURE() << "accepted '" << name << "'";
        } catch (const TopoError &err) {
            EXPECT_EQ(err.exitCode(), 1);
            EXPECT_EQ(std::string(err.what()),
                      "unknown placement algorithm '" +
                          std::string(name) +
                          "' (use default, ph, hkc, or gbsc)");
        }
    }
}

} // namespace
} // namespace topo
