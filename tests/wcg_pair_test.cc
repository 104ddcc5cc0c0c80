/**
 * @file
 * Tests for the WCG builder (Section 2 semantics), the WeightedGraph
 * container, and the Section 6 pair database.
 */

#include <gtest/gtest.h>

#include <bit>

#include "topo/eval/experiment.hh"
#include "topo/exec/exec.hh"
#include "topo/placement/popularity.hh"
#include "topo/profile/pair_database.hh"
#include "topo/profile/wcg_builder.hh"
#include "topo/profile/weighted_graph.hh"
#include "topo/trace/trace_stats.hh"
#include "topo/util/error.hh"
#include "topo/workload/paper_suite.hh"
#include "topo/workload/trace_synthesizer.hh"

#include "test_support.hh"

namespace topo
{
namespace
{

TEST(WeightedGraph, AddAndQuery)
{
    WeightedGraph g(4);
    g.addWeight(0, 1, 2.0);
    g.addWeight(1, 0, 3.0);
    EXPECT_DOUBLE_EQ(g.weight(0, 1), 5.0);
    EXPECT_DOUBLE_EQ(g.weight(1, 0), 5.0);
    EXPECT_TRUE(g.hasEdge(0, 1));
    EXPECT_FALSE(g.hasEdge(0, 2));
    EXPECT_EQ(g.edgeCount(), 1u);
    EXPECT_DOUBLE_EQ(g.totalWeight(), 5.0);
}

TEST(WeightedGraph, SelfEdgeRejected)
{
    WeightedGraph g(2);
    EXPECT_THROW(g.addWeight(1, 1, 1.0), TopoError);
}

TEST(WeightedGraph, SetWeightRequiresExistingEdge)
{
    WeightedGraph g(3);
    EXPECT_THROW(g.setWeight(0, 1, 2.0), TopoError);
    g.addWeight(0, 1, 1.0);
    g.setWeight(0, 1, 9.0);
    EXPECT_DOUBLE_EQ(g.weight(1, 0), 9.0);
}

TEST(WeightedGraph, EdgesEnumeratedOnce)
{
    WeightedGraph g(5);
    g.addWeight(0, 1, 1.0);
    g.addWeight(2, 3, 2.0);
    g.addWeight(1, 4, 3.0);
    const auto edges = g.edges();
    EXPECT_EQ(edges.size(), 3u);
    for (const auto &e : edges)
        EXPECT_LT(e.u, e.v);
}

TEST(WeightedGraph, AddGraphMergesProfiles)
{
    WeightedGraph a(4), b(4);
    a.addWeight(0, 1, 3.0);
    a.addWeight(1, 2, 2.0);
    b.addWeight(0, 1, 4.0); // overlaps
    b.addWeight(2, 3, 5.0); // new edge
    a.addGraph(b);
    EXPECT_DOUBLE_EQ(a.weight(0, 1), 7.0);
    EXPECT_DOUBLE_EQ(a.weight(1, 2), 2.0);
    EXPECT_DOUBLE_EQ(a.weight(2, 3), 5.0);
    EXPECT_EQ(a.edgeCount(), 3u);
}

TEST(WeightedGraph, AddGraphScalesAndChecks)
{
    WeightedGraph a(3), b(3), wrong(5);
    b.addWeight(0, 2, 10.0);
    a.addGraph(b, 0.5);
    EXPECT_DOUBLE_EQ(a.weight(0, 2), 5.0);
    EXPECT_THROW(a.addGraph(wrong), TopoError);
}

TEST(WeightedGraph, OutOfRangeChecked)
{
    WeightedGraph g(2);
    EXPECT_THROW(g.addWeight(0, 2, 1.0), TopoError);
    EXPECT_THROW(g.weight(5, 0), TopoError);
}

TEST(Wcg, CountsTransitionsBothWays)
{
    // Trace f g f g: transitions f->g, g->f, f->g = weight 3; this is
    // the paper's "twice the call count" convention (calls + returns).
    Program p("t");
    const ProcId f = p.addProcedure("f", 32);
    const ProcId g = p.addProcedure("g", 32);
    Trace t(2);
    t.append(f, 0, 32);
    t.append(g, 0, 32);
    t.append(f, 0, 32);
    t.append(g, 0, 32);
    const WeightedGraph wcg = buildWcg(p, t);
    EXPECT_DOUBLE_EQ(wcg.weight(f, g), 3.0);
}

TEST(Wcg, ConsecutiveRunsOfSameProcNotTransitions)
{
    Program p("t");
    const ProcId f = p.addProcedure("f", 64);
    const ProcId g = p.addProcedure("g", 32);
    Trace t(2);
    t.append(f, 0, 32);
    t.append(f, 32, 32); // same procedure: not a transition
    t.append(g, 0, 32);
    const WeightedGraph wcg = buildWcg(p, t);
    EXPECT_DOUBLE_EQ(wcg.weight(f, g), 1.0);
}

TEST(Wcg, NoCrossEdgesForSiblings)
{
    // M X M Y M X M Y: siblings X and Y never get a WCG edge — the
    // limitation the TRG fixes.
    Program p("t");
    const ProcId m = p.addProcedure("M", 32);
    const ProcId x = p.addProcedure("X", 32);
    const ProcId y = p.addProcedure("Y", 32);
    Trace t(3);
    for (int i = 0; i < 4; ++i) {
        t.append(m, 0, 32);
        t.append(i % 2 ? y : x, 0, 32);
    }
    const WeightedGraph wcg = buildWcg(p, t);
    EXPECT_DOUBLE_EQ(wcg.weight(x, y), 0.0);
    EXPECT_GT(wcg.weight(m, x), 0.0);
    EXPECT_GT(wcg.weight(m, y), 0.0);
}

TEST(PairDatabase, AddGetUnordered)
{
    PairDatabase db;
    db.add(1, 2, 3, 2.0);
    db.add(1, 3, 2, 1.0); // same unordered pair
    EXPECT_DOUBLE_EQ(db.get(1, 2, 3), 3.0);
    EXPECT_DOUBLE_EQ(db.get(1, 3, 2), 3.0);
    EXPECT_DOUBLE_EQ(db.get(2, 1, 3), 0.0);
    EXPECT_EQ(db.size(), 1u);
}

TEST(PairDatabase, DistinctIdsRequired)
{
    PairDatabase db;
    EXPECT_THROW(db.add(1, 1, 2, 1.0), TopoError);
    EXPECT_THROW(db.add(1, 2, 2, 1.0), TopoError);
}

TEST(PairDatabase, PruneDropsLightEntries)
{
    PairDatabase db;
    db.add(1, 2, 3, 5.0);
    db.add(1, 2, 4, 1.0);
    db.prune(2.0);
    EXPECT_EQ(db.size(), 1u);
    EXPECT_DOUBLE_EQ(db.get(1, 2, 3), 5.0);
    EXPECT_DOUBLE_EQ(db.get(1, 2, 4), 0.0);
}

TEST(PairDatabase, EntriesRoundTrip)
{
    PairDatabase db;
    db.add(7, 9, 8, 4.0);
    const auto entries = db.entries();
    ASSERT_EQ(entries.size(), 1u);
    EXPECT_EQ(entries[0].p, 7u);
    EXPECT_EQ(entries[0].r, 8u); // stored lo/hi
    EXPECT_EQ(entries[0].s, 9u);
    EXPECT_DOUBLE_EQ(entries[0].weight, 4.0);
}

TEST(PairDatabase, BuildRecordsTriples)
{
    // Trace p r s p: the pair {r,s} appears between the two p's.
    Program prog("t");
    const ProcId p = prog.addProcedure("p", 32);
    const ProcId r = prog.addProcedure("r", 32);
    const ProcId s = prog.addProcedure("s", 32);
    Trace t(3);
    t.append(p, 0, 32);
    t.append(r, 0, 32);
    t.append(s, 0, 32);
    t.append(p, 0, 32);
    PairBuildOptions opts;
    opts.byte_budget = 1024;
    const PairDatabase db = buildPairDatabase(prog, t, opts);
    EXPECT_DOUBLE_EQ(db.get(p, r, s), 1.0);
}

TEST(PairDatabase, SingleInterveningBlockRecordsNothing)
{
    // One block between two p references: no displacing *pair* exists.
    Program prog("t");
    const ProcId p = prog.addProcedure("p", 32);
    const ProcId r = prog.addProcedure("r", 32);
    Trace t(2);
    t.append(p, 0, 32);
    t.append(r, 0, 32);
    t.append(p, 0, 32);
    PairBuildOptions opts;
    opts.byte_budget = 1024;
    const PairDatabase db = buildPairDatabase(prog, t, opts);
    EXPECT_EQ(db.size(), 0u);
}

TEST(PairDatabase, WindowCapsEnumeration)
{
    // Six blocks between two p references with window 2: only the pair
    // of the two most recent intervening blocks is recorded.
    Program prog("t");
    const ProcId p = prog.addProcedure("p", 32);
    std::vector<ProcId> mids;
    for (int i = 0; i < 6; ++i)
        mids.push_back(prog.addProcedure(
            std::string("m").append(std::to_string(i)), 32));
    Trace t(prog.procCount());
    t.append(p, 0, 32);
    for (ProcId m : mids)
        t.append(m, 0, 32);
    t.append(p, 0, 32);
    PairBuildOptions opts;
    opts.byte_budget = 4096;
    opts.pair_window = 2;
    const PairDatabase db = buildPairDatabase(prog, t, opts);
    EXPECT_EQ(db.size(), 1u);
    EXPECT_DOUBLE_EQ(db.get(p, mids[4], mids[5]), 1.0);
}

TEST(PairDatabase, PopularMaskFilters)
{
    Program prog("t");
    const ProcId p = prog.addProcedure("p", 32);
    const ProcId r = prog.addProcedure("r", 32);
    const ProcId s = prog.addProcedure("s", 32);
    const ProcId cold = prog.addProcedure("cold", 32);
    Trace t(4);
    t.append(p, 0, 32);
    t.append(r, 0, 32);
    t.append(cold, 0, 32);
    t.append(s, 0, 32);
    t.append(p, 0, 32);
    PairBuildOptions opts;
    opts.byte_budget = 1024;
    std::vector<bool> popular{true, true, true, false};
    opts.popular = &popular;
    const PairDatabase db = buildPairDatabase(prog, t, opts);
    EXPECT_DOUBLE_EQ(db.get(p, r, s), 1.0);
    EXPECT_DOUBLE_EQ(db.get(p, r, cold), 0.0);
}

TEST(PairDatabase, ShortPopularityMaskRejected)
{
    // The mask must cover every procedure, as buildTrgs demands.
    Program prog("t");
    for (int i = 0; i < 6; ++i)
        prog.addProcedure(std::string("p").append(std::to_string(i)), 32);
    Trace t(prog.procCount());
    for (int round = 0; round < 3; ++round) {
        for (ProcId p = 0; p < prog.procCount(); ++p)
            t.append(p, 0, 32);
    }
    PairBuildOptions opts;
    opts.byte_budget = 1024;
    const std::vector<bool> popular{true, true};
    opts.popular = &popular;
    EXPECT_THROW(buildPairDatabase(prog, t, opts), TopoError);
}

TEST(PairDatabase, RunPastProcedureEndRejected)
{
    Program prog("t");
    const ProcId p = prog.addProcedure("p", 32);
    const ProcId r = prog.addProcedure("r", 32);
    Trace t(2);
    t.append(p, 0, 32);
    t.append(r, 16, 32); // ends 16 bytes past r
    t.append(p, 0, 32);
    PairBuildOptions opts;
    opts.byte_budget = 1024;
    EXPECT_THROW(buildPairDatabase(prog, t, opts), TopoError);
}

/** FNV-1a over the sorted (p, r, s, weight bits) entries of @p db. */
std::uint64_t
pairHash(const PairDatabase &db)
{
    std::uint64_t h = kFnvBasis;
    for (const PairDatabase::Entry &e : db.entries()) {
        fnvMix(h, e.p, 4);
        fnvMix(h, e.r, 4);
        fnvMix(h, e.s, 4);
        fnvMix(h, std::bit_cast<std::uint64_t>(e.weight), 8);
    }
    return h;
}

TEST(PairDatabase, GoldenSuiteBuildsAtScale005)
{
    // {entry count, entry hash} of the unpruned pair database as the
    // experiment pipeline builds it; sharded builds must match too.
    static const WordGolden<2> kGolden[] = {
        {"gcc", {0x00000000000002b3ULL, 0x140c48c503218cc5ULL}},
        {"m88ksim", {0x00000000000010efULL, 0x189b8457623e18e4ULL}},
    };
    const EvalOptions eval;
    for (const WordGolden<2> &want : kGolden) {
        const BenchmarkCase bench = paperBenchmark(want.name, 0.05);
        const Program &program = bench.model.program;
        const Trace trace = synthesizeTrace(bench.model, bench.train);
        const PopularSet popular = selectPopular(
            program, computeTraceStats(program, trace), eval.popularity);
        PairBuildOptions opts;
        opts.byte_budget = static_cast<std::uint64_t>(
            eval.q_budget_factor * eval.cache.size_bytes);
        opts.pair_window = eval.pair_window;
        opts.popular = &popular.mask;
        for (const int jobs : {1, 4}) {
            SCOPED_TRACE(std::string(want.name) + " jobs=" +
                         std::to_string(jobs));
            setExecJobs(jobs);
            const PairDatabase db = buildPairDatabase(program, trace, opts);
            setExecJobs(1);
            const std::uint64_t got[2] = {db.size(), pairHash(db)};
            expectGolden(want, got);
        }
    }
}

} // namespace
} // namespace topo
