/**
 * @file
 * Tests for GBSC (Section 4): merge_nodes semantics, the PH
 * equivalence in the small case, the final linear list, the conflict
 * metric, the Figure 1 end-to-end claims, the set-associative
 * variant, a differential test of the Figure 4 cost array against the
 * map-based form it replaced, and golden pins of both variants'
 * alignment decisions.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>

#include "topo/cache/simulate.hh"
#include "topo/eval/experiment.hh"
#include "topo/obs/metrics.hh"
#include "topo/placement/decision_log.hh"
#include "topo/placement/gbsc.hh"
#include "topo/placement/gbsc_setassoc.hh"
#include "topo/profile/perturb.hh"
#include "topo/profile/trg_builder.hh"
#include "topo/profile/wcg_builder.hh"
#include "topo/util/error.hh"
#include "topo/util/rng.hh"
#include "topo/workload/figure1.hh"
#include "topo/workload/paper_suite.hh"
#include "test_support.hh"

namespace topo
{
namespace
{

/** Self-owning context for hand-built graphs. */
struct GbscFixture
{
    Program program{"gbsc"};
    CacheConfig cache;
    std::unique_ptr<ChunkMap> chunks;
    WeightedGraph trg_select{0};
    WeightedGraph trg_place{0};
    PlacementContext ctx;

    GbscFixture(std::vector<std::uint32_t> sizes,
                CacheConfig cache_config = CacheConfig::paperDefault(),
                std::uint32_t chunk_bytes = 256)
        : cache(cache_config)
    {
        for (std::size_t i = 0; i < sizes.size(); ++i)
            program.addProcedure(
                std::string("p").append(std::to_string(i)), sizes[i]);
        chunks = std::make_unique<ChunkMap>(program, chunk_bytes);
        trg_select = WeightedGraph(program.procCount());
        trg_place = WeightedGraph(chunks->chunkCount());
        ctx.program = &program;
        ctx.cache = cache;
        ctx.chunks = chunks.get();
        ctx.trg_select = &trg_select;
        ctx.trg_place = &trg_place;
    }

    /** Convenience: weight between whole procedures' first chunks. */
    void
    placeWeight(ProcId a, ProcId b, double w)
    {
        trg_place.addWeight(chunks->chunkId(a, 0), chunks->chunkId(b, 0),
                            w);
    }
};

TEST(GbscMergeNodes, PhEquivalenceInSmallCase)
{
    // Section 4.2: merging two single-procedure nodes whose total size
    // is below the cache size must start q at the first line after p —
    // the chain PH would have built.
    GbscFixture fx({100, 200});
    fx.placeWeight(0, 1, 50.0);
    GbscNode n1, n2;
    n1.procs = {{0, 0}};
    n2.procs = {{1, 0}};
    double metric = -1.0;
    const GbscNode merged = Gbsc::mergeNodes(fx.ctx, n1, n2, &metric);
    ASSERT_EQ(merged.procs.size(), 2u);
    EXPECT_EQ(merged.procs[0].first, 0u);
    EXPECT_EQ(merged.procs[0].second, 0u);
    EXPECT_EQ(merged.procs[1].first, 1u);
    // p is 100 bytes = 4 lines: q starts at line 4 (first zero-cost).
    EXPECT_EQ(merged.procs[1].second, 4u);
    EXPECT_DOUBLE_EQ(metric, 0.0);
}

TEST(GbscMergeNodes, AvoidsConflictingOffset)
{
    // A tiny 4-line cache: p (2 lines) at offset 0, q (2 lines) with a
    // strong edge must land at offset 2, not wrap onto p.
    GbscFixture fx({64, 64}, CacheConfig{128, 32, 1}, 64);
    fx.placeWeight(0, 1, 10.0);
    GbscNode n1{{{0, 0}}}, n2{{{1, 0}}};
    const GbscNode merged = Gbsc::mergeNodes(fx.ctx, n1, n2);
    EXPECT_EQ(merged.procs[1].second, 2u);
}

TEST(GbscMergeNodes, PicksLeastWeightOverlapWhenForced)
{
    // Cache of 2 lines, three 1-line procedures: r must overlap p or
    // q; it must choose the lighter edge.
    GbscFixture fx({32, 32, 32}, CacheConfig{64, 32, 1}, 32);
    fx.placeWeight(0, 2, 100.0); // p-r heavy
    fx.placeWeight(1, 2, 1.0);   // q-r light
    GbscNode n1{{{0, 0}, {1, 1}}}; // p at line 0, q at line 1
    GbscNode n2{{{2, 0}}};
    double metric = -1.0;
    const GbscNode merged = Gbsc::mergeNodes(fx.ctx, n1, n2, &metric);
    EXPECT_EQ(merged.procs[2].second, 1u); // overlap q, not p
    EXPECT_DOUBLE_EQ(metric, 1.0);
}

TEST(GbscMergeNodes, ChunkInfoDisambiguatesLargeProcedures)
{
    // Two procedures, each exactly the cache size. Whole-procedure
    // information cannot prefer any offset, but if only the first
    // chunk of each is hot, the merge must shift the second procedure
    // so the hot chunks do not collide.
    const CacheConfig cache{1024, 32, 1}; // 32 lines
    GbscFixture fx({1024, 1024}, cache, 256);
    // Hot first chunks (8 lines each).
    fx.trg_place.addWeight(fx.chunks->chunkId(0, 0),
                           fx.chunks->chunkId(1, 0), 100.0);
    GbscNode n1{{{0, 0}}}, n2{{{1, 0}}};
    double metric = -1.0;
    const GbscNode merged = Gbsc::mergeNodes(fx.ctx, n1, n2, &metric);
    const std::uint32_t offset = merged.procs[1].second;
    // Any offset in [8, 24] separates the two 8-line hot chunks; the
    // smallest (8) wins the tie.
    EXPECT_EQ(offset, 8u);
    EXPECT_DOUBLE_EQ(metric, 0.0);
}

TEST(GbscMergeNodes, CostCountsPerLinePairs)
{
    // Full overlap of two 2-line hot chunks costs weight per line pair
    // (2 collisions), matching the Figure 4 double loop.
    GbscFixture fx({64, 64}, CacheConfig{64, 32, 1}, 64);
    fx.placeWeight(0, 1, 7.0);
    GbscNode n1{{{0, 0}}}, n2{{{1, 0}}};
    double metric = -1.0;
    Gbsc::mergeNodes(fx.ctx, n1, n2, &metric);
    // The cache has 2 lines and both procedures span both lines: every
    // offset collides on both lines: cost = 2 * 7.
    EXPECT_DOUBLE_EQ(metric, 14.0);
}

TEST(GbscConflictMetric, CountsSharedLines)
{
    GbscFixture fx({32, 32}, CacheConfig{128, 32, 1}, 32);
    fx.placeWeight(0, 1, 3.0);
    // Same offset: conflict; different offsets: none.
    EXPECT_DOUBLE_EQ(Gbsc::conflictMetric(fx.ctx, {0, 0}), 3.0);
    EXPECT_DOUBLE_EQ(Gbsc::conflictMetric(fx.ctx, {0, 1}), 0.0);
}

TEST(Gbsc, PlaceProducesValidLayout)
{
    GbscFixture fx({100, 200, 300, 64, 1000});
    fx.trg_select.addWeight(0, 1, 10.0);
    fx.trg_select.addWeight(1, 2, 8.0);
    fx.placeWeight(0, 1, 10.0);
    fx.placeWeight(1, 2, 8.0);
    const Gbsc gbsc;
    const Layout layout = gbsc.place(fx.ctx);
    layout.validate(fx.program, 32);
    EXPECT_EQ(gbsc.name(), "GBSC");
}

TEST(Gbsc, UnpopularFillGapsAndAppend)
{
    // One popular pair forced to a non-zero offset, leaving a gap that
    // a small unpopular procedure must fill.
    GbscFixture fx({64, 64, 32, 4096}, CacheConfig{256, 32, 1}, 32);
    fx.ctx.popular = {true, true, false, false};
    fx.ctx.heat = {100.0, 90.0, 1.0, 1.0};
    fx.trg_select.addWeight(0, 1, 10.0);
    // Force q's best offset away from adjacency: make chunk of p1
    // conflict with chunk p0 everywhere except offset 4.
    fx.placeWeight(0, 1, 10.0);
    const Gbsc gbsc;
    const Layout layout = gbsc.place(fx.ctx);
    layout.validate(fx.program, 32);
    // Everything assigned; unpopular 3 (large) appended after populars.
    EXPECT_GT(layout.address(3), layout.address(0));
    EXPECT_GT(layout.address(3), layout.address(1));
}

TEST(Gbsc, Figure1TraceDependentLayouts)
{
    // The core end-to-end claim of the paper's Section 1: with a
    // 3-line cache, GBSC driven by the TRG of trace #1 must separate
    // X and Y, while for trace #2 it may overlap X and Y but must give
    // Z a line free of whichever leaf shares its phase. We verify by
    // measuring: the GBSC layout for each trace must be at least as
    // good on that trace as the layout derived from the other trace.
    const Figure1Example ex = makeFigure1Example();
    const ChunkMap chunks(ex.program, 32);
    TrgBuildOptions opts;
    opts.byte_budget = 2 * ex.cache.size_bytes;

    auto layout_for = [&](const Trace &trace) {
        const TrgBuildResult trg =
            buildTrgs(ex.program, chunks, trace, opts);
        PlacementContext ctx;
        ctx.program = &ex.program;
        ctx.cache = ex.cache;
        ctx.chunks = &chunks;
        ctx.trg_select = &trg.select;
        ctx.trg_place = &trg.place;
        const Gbsc gbsc;
        return gbsc.place(ctx);
    };
    auto miss_rate = [&](const Layout &layout, const Trace &trace) {
        const FetchStream stream(ex.program, trace,
                                 ex.cache.line_bytes);
        return layoutMissRate(ex.program, layout, stream, ex.cache);
    };

    const Trace t1 = ex.trace1();
    const Trace t2 = ex.trace2();
    const Layout l1 = layout_for(t1);
    const Layout l2 = layout_for(t2);
    // Each layout must win (or tie) on its own trace.
    EXPECT_LE(miss_rate(l1, t1), miss_rate(l2, t1));
    EXPECT_LE(miss_rate(l2, t2), miss_rate(l1, t2));
    // And the layouts must differ in their conflict structure: under
    // trace #1's layout X and Y get distinct lines.
    auto color = [&](const Layout &l, ProcId p) {
        return l.startLine(p, ex.cache.line_bytes) % 3;
    };
    EXPECT_NE(color(l1, ex.x), color(l1, ex.y));
}

TEST(GbscSetAssoc, RequiresPairsAndAssociativity)
{
    GbscFixture fx({64, 64}, CacheConfig::paperTwoWay());
    const GbscSetAssoc sa;
    EXPECT_THROW(sa.place(fx.ctx), TopoError); // no pair database

    PairDatabase pairs;
    fx.ctx.pairs = &pairs;
    fx.ctx.cache.associativity = 1;
    EXPECT_THROW(sa.place(fx.ctx), TopoError); // not set-associative
}

TEST(GbscSetAssoc, SeparatesTripleConflicts)
{
    // p, r, s each one line; D(p,{r,s}) heavy. In a 2-line 2-way cache
    // (1 set... use 4 lines 2-way = 2 sets), the merge must not put
    // all three in the same set.
    const CacheConfig cache{128, 32, 2}; // 4 lines, 2 sets
    GbscFixture fx({32, 32, 32}, cache, 32);
    fx.trg_select.addWeight(0, 1, 10.0);
    fx.trg_select.addWeight(0, 2, 5.0);
    PairDatabase pairs;
    pairs.add(0, 1, 2, 100.0);
    fx.ctx.pairs = &pairs;
    const GbscSetAssoc sa;
    const Layout layout = sa.place(fx.ctx);
    layout.validate(fx.program, 32);
    auto set_of = [&](ProcId p) {
        return layout.startLine(p, 32) % cache.setCount();
    };
    const bool all_same =
        set_of(0) == set_of(1) && set_of(1) == set_of(2);
    EXPECT_FALSE(all_same);
    EXPECT_EQ(sa.name(), "GBSC-SA");
}

TEST(GbscSetAssoc, CountsTheOffsetsEachMergeScans)
{
    // gbsc.offset_candidates is the size of the cost array each merge
    // scans: every cache line for GBSC, on any cache, but one offset
    // per set for the set-associative sweep.
    const CacheConfig two_way = CacheConfig::paperTwoWay();
    GbscFixture fx({64, 96, 64, 128, 32}, two_way);
    for (BlockId p = 1; p < 5; ++p)
        fx.trg_select.addWeight(p - 1, p, 10.0 * p);
    PairDatabase pairs;
    pairs.add(0, 1, 2, 5.0);
    fx.ctx.pairs = &pairs;
    PlacementContext direct = fx.ctx;
    direct.cache = CacheConfig::paperDefault();

    const Gbsc gbsc;
    const GbscSetAssoc gbsc_sa;
    struct Case
    {
        const Gbsc &algorithm;
        const PlacementContext &ctx;
        std::uint64_t per_merge;
    };
    const Case cases[] = {
        {gbsc, direct, direct.cache.lineCount()},
        {gbsc, fx.ctx, two_way.lineCount()},
        {gbsc_sa, fx.ctx, two_way.setCount()},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.algorithm.name() + " on " +
                     std::to_string(c.ctx.cache.associativity) + "-way");
        MetricsRegistry local;
        MetricsScope scope(local);
        c.algorithm.place(c.ctx);
        const std::uint64_t steps =
            local.counter("gbsc.merge_steps").value();
        EXPECT_EQ(steps, 4u);
        EXPECT_EQ(local.counter("gbsc.offset_candidates").value(),
                  steps * c.per_merge);
    }
}

/**
 * The Figure 4 cost array as GBSC computed it before chunk spans: each
 * node's chunk colours in an ordered map built one chunkAtLine call per
 * line, and three modulo operations per colour pair. The oracle of the
 * differential test below.
 */
std::vector<double>
mapAlignmentCost(const PlacementContext &ctx, const GbscNode &n1,
                 const GbscNode &n2, std::uint32_t modulus)
{
    using ChunkColors = std::map<ChunkId, std::vector<std::uint32_t>>;
    auto chunk_colors = [&](const GbscNode &node) {
        const std::uint32_t cache_lines = ctx.cache.lineCount();
        const std::uint32_t line_bytes = ctx.cache.line_bytes;
        ChunkColors colors;
        for (const auto &[proc, offset] : node.procs) {
            const std::uint32_t len =
                ctx.program->sizeInLines(proc, line_bytes);
            for (std::uint32_t line = 0; line < len; ++line) {
                const ChunkId chunk =
                    ctx.chunks->chunkAtLine(proc, line, line_bytes);
                colors[chunk].push_back((offset + line) % cache_lines);
            }
        }
        return colors;
    };
    const ChunkColors colors1 = chunk_colors(n1);
    const ChunkColors colors2 = chunk_colors(n2);
    std::vector<double> cost(modulus, 0.0);
    const bool iterate_first = colors1.size() <= colors2.size();
    const ChunkColors &mine = iterate_first ? colors1 : colors2;
    const ChunkColors &theirs = iterate_first ? colors2 : colors1;
    for (const auto &[chunk, my_colors] : mine) {
        for (const auto &[other, weight] :
             ctx.trg_place->neighbors(chunk)) {
            auto it = theirs.find(other);
            if (it == theirs.end())
                continue;
            for (const std::uint32_t a : my_colors) {
                for (const std::uint32_t b : it->second) {
                    const std::uint32_t in_n1 = iterate_first ? a : b;
                    const std::uint32_t in_n2 = iterate_first ? b : a;
                    const std::uint32_t i =
                        (in_n1 % modulus + modulus - in_n2 % modulus) %
                        modulus;
                    cost[i] += weight;
                }
            }
        }
    }
    return cost;
}

/** One geometry of the alignmentCost differential test. */
struct AlignGeometry
{
    const char *name;
    CacheConfig cache;
    std::uint32_t chunk_bytes;
    std::uint32_t max_proc_bytes;
};

TEST(GbscAlignmentCost, MatchesTheMapOracleBitForBit)
{
    static const AlignGeometry kGeometries[] = {
        {"paper direct-mapped", CacheConfig{8 * 1024, 32, 1}, 256, 6000},
        {"paper 2-way", CacheConfig{8 * 1024, 32, 2}, 256, 6000},
        // 48-byte chunks straddle 32-byte lines.
        {"unaligned chunks", CacheConfig{1024, 32, 2}, 48, 1500},
        // Chunks smaller than a line: some hold no line's first byte.
        {"sub-line chunks", CacheConfig{1024, 32, 4}, 16, 600},
        // A 1 KB chunk in a 512 B cache: its colours wrap.
        {"chunks wider than the cache", CacheConfig{512, 32, 1}, 1024,
         3000},
    };
    Rng rng(4242);
    for (const AlignGeometry &geometry : kGeometries) {
        SCOPED_TRACE(geometry.name);
        std::vector<std::uint32_t> sizes;
        for (int i = 0; i < 24; ++i) {
            sizes.push_back(1 + static_cast<std::uint32_t>(
                                    rng.nextBelow(geometry.max_proc_bytes)));
        }
        GbscFixture fx(sizes, geometry.cache, geometry.chunk_bytes);
        const auto chunk_count =
            static_cast<std::uint32_t>(fx.chunks->chunkCount());
        for (int e = 0; e < 400; ++e) {
            const auto u = static_cast<BlockId>(rng.nextBelow(chunk_count));
            const auto v = static_cast<BlockId>(rng.nextBelow(chunk_count));
            if (u != v)
                fx.trg_place.addWeight(u, v, 1.0 + rng.nextBelow(50));
        }
        Rng noise(99);
        const WeightedGraph perturbed =
            perturb(fx.trg_place, kPaperPerturbScale, noise);
        const WeightedGraph *graphs[] = {&fx.trg_place, &perturbed};
        const std::uint32_t lines = geometry.cache.lineCount();
        const std::uint32_t moduli[] = {lines,
                                        geometry.cache.setCount()};

        for (int trial = 0; trial < 40; ++trial) {
            // Two disjoint random nodes at random offsets; every tenth
            // trial leaves one of them empty.
            std::vector<ProcId> procs(sizes.size());
            for (std::size_t i = 0; i < procs.size(); ++i)
                procs[i] = static_cast<ProcId>(i);
            std::shuffle(procs.begin(), procs.end(), rng);
            const std::size_t take1 = trial % 10 == 0 ? 0 :
                                      1 + rng.nextBelow(8);
            const std::size_t take2 = trial % 10 == 5 ? 0 :
                                      1 + rng.nextBelow(8);
            GbscNode n1;
            GbscNode n2;
            for (std::size_t i = 0; i < take1; ++i) {
                n1.procs.emplace_back(
                    procs[i], static_cast<std::uint32_t>(
                                  rng.nextBelow(lines)));
            }
            for (std::size_t i = take1; i < take1 + take2; ++i) {
                n2.procs.emplace_back(
                    procs[i], static_cast<std::uint32_t>(
                                  rng.nextBelow(lines)));
            }
            for (const WeightedGraph *graph : graphs) {
                fx.ctx.trg_place = graph;
                for (const std::uint32_t modulus : moduli) {
                    const std::vector<double> want =
                        mapAlignmentCost(fx.ctx, n1, n2, modulus);
                    const std::vector<double> got =
                        Gbsc::alignmentCost(fx.ctx, n1, n2, modulus);
                    ASSERT_EQ(got.size(), want.size());
                    ASSERT_EQ(std::memcmp(got.data(), want.data(),
                                          got.size() * sizeof(double)),
                              0)
                        << "trial " << trial << ", modulus " << modulus
                        << (graph == &perturbed ? ", perturbed" : "");
                }
            }
            fx.ctx.trg_place = &fx.trg_place;
        }
    }
}

TEST(GbscAlignmentCost, RejectsAModulusThatDoesNotDivideTheLines)
{
    GbscFixture fx({64, 64});
    GbscNode n1;
    n1.procs.emplace_back(0, 0u);
    GbscNode n2;
    n2.procs.emplace_back(1, 0u);
    try {
        Gbsc::alignmentCost(fx.ctx, n1, n2, 255);
        FAIL() << "a modulus of 255 against 256 lines was accepted";
    } catch (const TopoError &e) {
        EXPECT_EQ(e.exitCode(), 1);
        EXPECT_NE(std::string(e.what()).find("must divide"),
                  std::string::npos);
    }
}

/** Property: GBSC layouts are always valid across random TRGs. */
class GbscPropertyTest : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(GbscPropertyTest, RandomTrgsYieldValidLayouts)
{
    Rng rng(GetParam());
    std::vector<std::uint32_t> sizes;
    for (int i = 0; i < 18; ++i) {
        sizes.push_back(
            32 + static_cast<std::uint32_t>(rng.nextBelow(2500)));
    }
    GbscFixture fx(sizes);
    for (int e = 0; e < 60; ++e) {
        const BlockId u = static_cast<BlockId>(rng.nextBelow(18));
        const BlockId v = static_cast<BlockId>(rng.nextBelow(18));
        if (u == v)
            continue;
        const double w = 1.0 + rng.nextBelow(100);
        fx.trg_select.addWeight(u, v, w);
        fx.trg_place.addWeight(
            fx.chunks->chunkId(u, rng.nextBelow(fx.chunks->chunksOf(u))),
            fx.chunks->chunkId(v, rng.nextBelow(fx.chunks->chunksOf(v))),
            w);
    }
    fx.ctx.heat.assign(18, 1.0);
    const Gbsc gbsc;
    const Layout layout = gbsc.place(fx.ctx);
    layout.validate(fx.program, 32);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GbscPropertyTest,
                         ::testing::Values(21u, 22u, 23u, 24u, 25u, 26u));

TEST(GbscGolden, AlignDecisionsAndSetAssocLayoutAtScale005)
{
    // Recorded before alignmentCost moved from per-merge chunk maps to
    // flat chunk spans; the 4-way, 8-way and 2 KB rows were recorded
    // before the set-associative merge moved from per-procedure set
    // lists to circular set runs. Each row holds the align-record
    // count, the align-record digest, the layout hash and the
    // test-trace misses. "gbsc-perturbed" places on perturbed TRGs,
    // whose weights are not integers, so it pins the order of the cost
    // additions too. In the 32-set 2 KB 2-way cache 124 of gcc's 211
    // popular procedures cover every set, so set runs cover the whole
    // circle or wrap.
    static const WordGolden<4> kGolden[] = {
        {"gbsc",
         {0x000000000000002eULL, 0xe3b8d77c5807e163ULL,
          0x8a27023417b01d15ULL, 0x000000000001d2f8ULL}},
        {"gbsc-perturbed",
         {0x000000000000002eULL, 0xd63858e1c30d1629ULL,
          0x1b21feaf691253afULL, 0x000000000001d2aaULL}},
        {"gbsc-sa",
         {0x000000000000002eULL, 0x64934f31ab1a2d8bULL,
          0xaf4958c9fec90f13ULL, 0x000000000001fa63ULL}},
        {"gbsc-sa-4way",
         {0x000000000000002eULL, 0x61f71253caff8065ULL,
          0xdb09a313d2a74737ULL, 0x0000000000021549ULL}},
        {"gbsc-sa-8way",
         {0x000000000000002eULL, 0x14cb104440371c79ULL,
          0x584319d5ace4e81eULL, 0x0000000000021a54ULL}},
        {"gbsc-sa-2k-2way",
         {0x000000000000002dULL, 0xaa589d85bdff5a9cULL,
          0xa86bd14a97170894ULL, 0x000000000007ef62ULL}},
    };
    const ProfileBundle direct(paperBenchmark("gcc", 0.05), EvalOptions{});
    auto assoc_options = [](CacheConfig cache) {
        EvalOptions options;
        options.cache = cache;
        options.build_pairs = true;
        return options;
    };
    const ProfileBundle assoc(paperBenchmark("gcc", 0.05),
                              assoc_options(CacheConfig::paperTwoWay()));
    const ProfileBundle four_way(paperBenchmark("gcc", 0.05),
                                 assoc_options(CacheConfig{8 * 1024, 32, 4}));
    const ProfileBundle eight_way(paperBenchmark("gcc", 0.05),
                                  assoc_options(CacheConfig{8 * 1024, 32, 8}));
    const ProfileBundle small(paperBenchmark("gcc", 0.05),
                              assoc_options(CacheConfig{2 * 1024, 32, 2}));

    Rng rng_sel(71);
    Rng rng_plc(72);
    const WeightedGraph sel_p =
        perturb(direct.trgSelect(), kPaperPerturbScale, rng_sel);
    const WeightedGraph plc_p =
        perturb(direct.trgPlace(), kPaperPerturbScale, rng_plc);

    const Gbsc gbsc;
    const GbscSetAssoc gbsc_sa;
    struct Case
    {
        const PlacementAlgorithm &algorithm;
        const ProfileBundle &bundle;
        PlacementContext ctx;
        const char *stage;
    };
    const Case cases[] = {
        {gbsc, direct, direct.makeContext(), "gbsc.align"},
        {gbsc, direct, direct.makeContext(nullptr, &sel_p, &plc_p),
         "gbsc.align"},
        {gbsc_sa, assoc, assoc.makeContext(), "gbsc_sa.align"},
        {gbsc_sa, four_way, four_way.makeContext(), "gbsc_sa.align"},
        {gbsc_sa, eight_way, eight_way.makeContext(), "gbsc_sa.align"},
        {gbsc_sa, small, small.makeContext(), "gbsc_sa.align"},
    };
    ASSERT_EQ(std::size(cases), std::size(kGolden));
    for (std::size_t i = 0; i < std::size(cases); ++i) {
        SCOPED_TRACE(kGolden[i].name);
        const Case &c = cases[i];
        DecisionLog log;
        PlacementContext ctx = c.ctx;
        ctx.decisions = &log;
        const Layout layout = c.algorithm.place(ctx);
        std::uint64_t got[4];
        got[1] = decisionDigest(log, c.stage, &got[0]);
        got[2] = layoutHash(layout);
        got[3] = simulateLayout(c.bundle.program(), layout,
                                c.bundle.testStream(),
                                c.bundle.options().cache)
                     .misses;
        EXPECT_GT(got[0], 0u);
        expectGolden(kGolden[i], got);
    }
}

} // namespace
} // namespace topo
