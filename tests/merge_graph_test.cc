/**
 * @file
 * Tests for the greedy merge working graph shared by PH and GBSC.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>

#include "topo/placement/merge_graph.hh"
#include "topo/util/error.hh"
#include "topo/util/rng.hh"

namespace topo
{
namespace
{

WeightedGraph
sampleGraph()
{
    WeightedGraph g(5);
    g.addWeight(0, 1, 10.0);
    g.addWeight(1, 2, 20.0);
    g.addWeight(2, 3, 5.0);
    g.addWeight(0, 3, 1.0);
    return g;
}

TEST(MergeGraph, MaxEdgeFindsHeaviest)
{
    MergeGraph mg(sampleGraph());
    const auto e = mg.maxEdge();
    ASSERT_TRUE(e.valid);
    EXPECT_EQ(e.u, 1u);
    EXPECT_EQ(e.v, 2u);
    EXPECT_DOUBLE_EQ(e.weight, 20.0);
}

TEST(MergeGraph, TieBreaksOnSmallestPair)
{
    WeightedGraph g(4);
    g.addWeight(2, 3, 7.0);
    g.addWeight(0, 1, 7.0);
    MergeGraph mg(g);
    const auto e = mg.maxEdge();
    EXPECT_EQ(e.u, 0u);
    EXPECT_EQ(e.v, 1u);
}

TEST(MergeGraph, MergeFoldsParallelEdges)
{
    MergeGraph mg(sampleGraph());
    // Merge 2 into 1: edges (1,0)=10, and (2,3)=5 moves to (1,3),
    // folding with nothing; (0,3)=1 unchanged.
    mg.mergeInto(1, 2);
    EXPECT_FALSE(mg.alive(2));
    EXPECT_TRUE(mg.alive(1));
    EXPECT_DOUBLE_EQ(mg.weightBetween(1, 3), 5.0);
    EXPECT_DOUBLE_EQ(mg.weightBetween(1, 0), 10.0);
    EXPECT_EQ(mg.edgeCount(), 3u);

    // Now merge 3 into 0: (0,3)=1 removed; (3,1)=5 folds into (0,1).
    mg.mergeInto(0, 3);
    EXPECT_DOUBLE_EQ(mg.weightBetween(0, 1), 15.0);
    EXPECT_EQ(mg.edgeCount(), 1u);
    mg.mergeInto(0, 1);
    EXPECT_TRUE(mg.done());
}

TEST(MergeGraph, DrainsToNoEdges)
{
    MergeGraph mg(sampleGraph());
    std::size_t merges = 0;
    while (!mg.done()) {
        const auto e = mg.maxEdge();
        ASSERT_TRUE(e.valid);
        mg.mergeInto(e.u, e.v);
        ++merges;
        ASSERT_LT(merges, 10u);
    }
    EXPECT_FALSE(mg.maxEdge().valid);
    // 4 distinct nodes with a connected graph: 3 merges.
    EXPECT_EQ(merges, 3u);
}

TEST(MergeGraph, MaskFiltersNodes)
{
    std::vector<bool> mask{true, true, false, false, true};
    MergeGraph mg(sampleGraph(), &mask);
    // Only (0,1)=10 survives the mask.
    EXPECT_EQ(mg.edgeCount(), 1u);
    const auto e = mg.maxEdge();
    EXPECT_EQ(e.u, 0u);
    EXPECT_EQ(e.v, 1u);
    EXPECT_FALSE(mg.alive(2));
}

TEST(MergeGraph, RandomTieBreakerStaysWithinTieSet)
{
    WeightedGraph g(6);
    g.addWeight(0, 1, 7.0);
    g.addWeight(2, 3, 7.0);
    g.addWeight(4, 5, 7.0);
    g.addWeight(0, 5, 1.0);
    bool seen_non_first = false;
    for (std::uint64_t seed = 0; seed < 32; ++seed) {
        MergeGraph mg(g);
        mg.setTieBreaker(seed);
        const auto e = mg.maxEdge();
        ASSERT_TRUE(e.valid);
        EXPECT_DOUBLE_EQ(e.weight, 7.0); // never the light edge
        seen_non_first |= !(e.u == 0 && e.v == 1);
    }
    // Across 32 seeds the breaker must have picked a different tie at
    // least once (probability of failure ~ (1/3)^32).
    EXPECT_TRUE(seen_non_first);
}

TEST(MergeGraph, TieBreakerDeterministicPerSeed)
{
    WeightedGraph g(4);
    g.addWeight(0, 1, 3.0);
    g.addWeight(2, 3, 3.0);
    for (std::uint64_t seed : {1ULL, 9ULL, 77ULL}) {
        MergeGraph a(g), b(g);
        a.setTieBreaker(seed);
        b.setTieBreaker(seed);
        const auto ea = a.maxEdge();
        const auto eb = b.maxEdge();
        EXPECT_EQ(ea.u, eb.u);
        EXPECT_EQ(ea.v, eb.v);
    }
}

/**
 * A dense model of the working graph, merged the same way and scanned
 * in full: the oracle for MergeGraph's heap. Weights are positive, so
 * 0 means no edge.
 */
struct DenseModel
{
    std::size_t n;
    std::vector<double> w;
    std::vector<bool> alive;

    DenseModel(const WeightedGraph &g, const std::vector<bool> *mask)
        : n(g.nodeCount()), w(n * n, 0.0), alive(n, true)
    {
        if (mask)
            alive = *mask;
        for (const WeightedGraph::Edge &e : g.edges()) {
            if (alive[e.u] && alive[e.v])
                w[e.u * n + e.v] = w[e.v * n + e.u] = e.weight;
        }
    }

    void
    mergeInto(BlockId u, BlockId v)
    {
        w[u * n + v] = w[v * n + u] = 0.0;
        for (std::size_t r = 0; r < n; ++r) {
            if (w[v * n + r] == 0.0)
                continue;
            w[u * n + r] = w[r * n + u] = w[u * n + r] + w[v * n + r];
            w[v * n + r] = w[r * n + v] = 0.0;
        }
        alive[v] = false;
    }

    /** Every heaviest edge (u < v), in (u, v) order. */
    std::vector<std::pair<BlockId, BlockId>>
    tieSet(double *weight) const
    {
        std::vector<std::pair<BlockId, BlockId>> ties;
        *weight = 0.0;
        for (std::size_t u = 0; u < n; ++u) {
            for (std::size_t v = u + 1; v < n; ++v) {
                const double x = w[u * n + v];
                if (x == 0.0 || x < *weight)
                    continue;
                if (x > *weight)
                    ties.clear();
                *weight = x;
                ties.emplace_back(static_cast<BlockId>(u),
                                  static_cast<BlockId>(v));
            }
        }
        return ties;
    }
};

/** Random graph with weights in {1, 2, 3}: many equal weights. */
std::vector<WeightedGraph::Edge>
tiedEdges(Rng &rng, std::size_t nodes)
{
    std::vector<WeightedGraph::Edge> edges;
    for (BlockId u = 0; u < nodes; ++u) {
        for (BlockId v = u + 1; v < nodes; ++v) {
            if (rng.nextBelow(3) == 0) {
                edges.push_back(WeightedGraph::Edge{
                    u, v, static_cast<double>(1 + rng.nextBelow(3))});
            }
        }
    }
    return edges;
}

WeightedGraph
buildGraph(std::size_t nodes, const std::vector<WeightedGraph::Edge> &edges)
{
    WeightedGraph g(nodes);
    for (const WeightedGraph::Edge &e : edges)
        g.addWeight(e.u, e.v, e.weight);
    return g;
}

TEST(MergeGraph, HeapMatchesFullScanThroughRandomMerges)
{
    // Merges alternate between the heaviest edge (as PH and GBSC do)
    // and an arbitrary pair of live nodes, which folds edges into new
    // weights and strands heap entries of both kinds. In deterministic
    // mode maxEdge must equal the model's full scan at every step; in
    // tie mode it must be the tie set's entry, in (u, v) order, that
    // one draw of the seed's generator picks.
    Rng rng(2027);
    const std::size_t nodes = 24;
    for (int graph = 0; graph < 40; ++graph) {
        const WeightedGraph g = buildGraph(nodes, tiedEdges(rng, nodes));
        std::vector<bool> mask(nodes, true);
        for (std::size_t i = 0; i < nodes; ++i)
            mask[i] = rng.nextBelow(5) != 0;
        const bool masked = graph % 2 == 1;
        const bool tie_mode = graph % 4 >= 2;
        MergeGraph mg(g, masked ? &mask : nullptr);
        DenseModel model(g, masked ? &mask : nullptr);
        Rng mirror(static_cast<std::uint64_t>(graph));
        if (tie_mode)
            mg.setTieBreaker(static_cast<std::uint64_t>(graph));
        for (int step = 0;; ++step) {
            double top = 0.0;
            const auto ties = model.tieSet(&top);
            const MergeGraph::Edge e = mg.maxEdge();
            ASSERT_EQ(e.valid, !ties.empty()) << "step " << step;
            if (!e.valid)
                break;
            const auto want =
                tie_mode ? ties[mirror.nextBelow(ties.size())] : ties[0];
            ASSERT_EQ(e.u, want.first) << "graph " << graph;
            ASSERT_EQ(e.v, want.second) << "graph " << graph;
            ASSERT_EQ(e.weight, top);
            BlockId u = e.u, v = e.v;
            if (step % 2 == 1) {
                std::vector<BlockId> live;
                for (BlockId i = 0; i < nodes; ++i) {
                    if (model.alive[i])
                        live.push_back(i);
                }
                u = live[rng.nextBelow(live.size())];
                do {
                    v = live[rng.nextBelow(live.size())];
                } while (v == u);
            } else if (rng.nextBelow(2) == 0) {
                std::swap(u, v);
            }
            mg.mergeInto(u, v);
            model.mergeInto(u, v);
        }
        EXPECT_TRUE(mg.done());
    }
}

TEST(MergeGraph, FoldThatLowersAWeightStrandsTheOldEntry)
{
    // Folding a negative weight lowers (0,1) from 5 to 2, so the heap
    // still holds (0,1) at 5 above the live (0,3) at 4.
    WeightedGraph g(4);
    g.addWeight(0, 1, 5.0);
    g.addWeight(1, 2, -3.0);
    g.addWeight(0, 3, 4.0);
    MergeGraph mg(g);
    mg.mergeInto(0, 2);
    EXPECT_DOUBLE_EQ(mg.weightBetween(0, 1), 2.0);
    const auto e = mg.maxEdge();
    EXPECT_EQ(e.u, 0u);
    EXPECT_EQ(e.v, 3u);
    EXPECT_DOUBLE_EQ(e.weight, 4.0);
}

TEST(MergeGraph, TiePicksIgnoreEdgeInsertionOrder)
{
    // The same graph built from its edges in three orders must drain
    // through the same picks for a given seed.
    Rng rng(7);
    const std::size_t nodes = 20;
    const std::vector<WeightedGraph::Edge> edges = tiedEdges(rng, nodes);
    auto drain = [&](const std::vector<WeightedGraph::Edge> &order,
                     std::uint64_t seed) {
        MergeGraph mg(buildGraph(nodes, order));
        mg.setTieBreaker(seed);
        std::vector<std::pair<BlockId, BlockId>> picks;
        while (!mg.done()) {
            const MergeGraph::Edge e = mg.maxEdge();
            picks.emplace_back(e.u, e.v);
            mg.mergeInto(e.u, e.v);
        }
        return picks;
    };
    std::vector<WeightedGraph::Edge> reversed(edges.rbegin(), edges.rend());
    std::vector<WeightedGraph::Edge> shuffled = edges;
    rng.shuffle(shuffled);
    for (std::uint64_t seed : {1ULL, 9ULL, 77ULL, 1234ULL}) {
        const auto want = drain(edges, seed);
        EXPECT_EQ(drain(reversed, seed), want) << "seed " << seed;
        EXPECT_EQ(drain(shuffled, seed), want) << "seed " << seed;
    }
}

TEST(MergeGraph, MisuseRejected)
{
    MergeGraph mg(sampleGraph());
    EXPECT_THROW(mg.mergeInto(0, 0), TopoError);
    mg.mergeInto(0, 1);
    EXPECT_THROW(mg.mergeInto(2, 1), TopoError); // 1 is dead
}

} // namespace
} // namespace topo
