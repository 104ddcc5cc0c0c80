/**
 * @file
 * Tests for the Section 5.1 multiplicative profile perturbation.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "topo/profile/perturb.hh"
#include "topo/util/error.hh"
#include "topo/util/stats.hh"

namespace topo
{
namespace
{

WeightedGraph
denseGraph(std::size_t n)
{
    WeightedGraph g(n);
    for (BlockId u = 0; u < n; ++u) {
        for (BlockId v = u + 1; v < n; ++v)
            g.addWeight(u, v, 1.0 + u * 10.0 + v);
    }
    return g;
}

TEST(Perturb, ZeroScaleIsIdentity)
{
    const WeightedGraph g = denseGraph(6);
    Rng rng(1);
    const WeightedGraph noisy = perturb(g, 0.0, rng);
    for (BlockId u = 0; u < 6; ++u) {
        for (BlockId v = u + 1; v < 6; ++v)
            EXPECT_DOUBLE_EQ(noisy.weight(u, v), g.weight(u, v));
    }
}

TEST(Perturb, PreservesStructure)
{
    const WeightedGraph g = denseGraph(8);
    Rng rng(2);
    const WeightedGraph noisy = perturb(g, 0.5, rng);
    EXPECT_EQ(noisy.nodeCount(), g.nodeCount());
    EXPECT_EQ(noisy.edgeCount(), g.edgeCount());
    for (BlockId u = 0; u < 8; ++u) {
        for (BlockId v = u + 1; v < 8; ++v)
            EXPECT_EQ(noisy.hasEdge(u, v), g.hasEdge(u, v));
    }
}

TEST(Perturb, WeightsStayPositive)
{
    // The paper's reason for multiplicative noise: no negative weights.
    const WeightedGraph g = denseGraph(10);
    Rng rng(3);
    const WeightedGraph noisy = perturb(g, 2.0, rng);
    for (const auto &e : noisy.edges())
        EXPECT_GT(e.weight, 0.0);
}

TEST(Perturb, DeterministicForSeed)
{
    const WeightedGraph g = denseGraph(7);
    Rng a(42), b(42);
    const WeightedGraph n1 = perturb(g, 0.1, a);
    const WeightedGraph n2 = perturb(g, 0.1, b);
    for (const auto &e : n1.edges())
        EXPECT_DOUBLE_EQ(e.weight, n2.weight(e.u, e.v));
}

TEST(Perturb, DrawsOneGaussianPerEdgeInEdgesOrder)
{
    // Edges added out of (u, v) order, with distinct weights, so a
    // draw order other than edges() lands a factor on the wrong edge.
    WeightedGraph g(12);
    for (BlockId u = 11; u > 0; --u) {
        for (BlockId v = 0; v < u; v += 3)
            g.addWeight(u, v, 1.0 + u * 7.0 + v * 0.5);
    }
    const double scale = 0.4;
    Rng rng(9);
    const WeightedGraph noisy = perturb(g, scale, rng);

    Rng hand(9);
    std::vector<double> expected;
    for (const WeightedGraph::Edge &e : g.edges())
        expected.push_back(e.weight *
                           std::exp(scale * hand.nextGaussian()));
    std::vector<double> actual;
    for (const WeightedGraph::Edge &e : noisy.edges())
        actual.push_back(e.weight);
    ASSERT_EQ(actual.size(), expected.size());
    EXPECT_EQ(std::memcmp(actual.data(), expected.data(),
                          actual.size() * sizeof(double)),
              0);
}

TEST(Perturb, LogRatiosMatchScale)
{
    // log(w'/w) should be N(0, s^2).
    WeightedGraph g(80);
    for (BlockId u = 0; u + 1 < 80; ++u)
        g.addWeight(u, u + 1, 100.0);
    const double s = 0.1;
    RunningStats stats;
    for (std::uint64_t seed = 0; seed < 100; ++seed) {
        Rng rng(seed);
        const WeightedGraph noisy = perturb(g, s, rng);
        for (const auto &e : noisy.edges())
            stats.add(std::log(e.weight / 100.0));
    }
    EXPECT_NEAR(stats.mean(), 0.0, 0.01);
    EXPECT_NEAR(stats.stddev(), s, 0.01);
}

TEST(Perturb, SelfScalingAcrossMagnitudes)
{
    // The relative spread is independent of the initial weight.
    WeightedGraph g(4);
    g.addWeight(0, 1, 1.0);
    g.addWeight(2, 3, 1.0e9);
    RunningStats small_ratio, big_ratio;
    for (std::uint64_t seed = 0; seed < 2000; ++seed) {
        Rng rng(seed);
        const WeightedGraph noisy = perturb(g, 0.3, rng);
        small_ratio.add(noisy.weight(0, 1) / 1.0);
        big_ratio.add(noisy.weight(2, 3) / 1.0e9);
    }
    EXPECT_NEAR(small_ratio.mean(), big_ratio.mean(), 0.05);
    EXPECT_NEAR(small_ratio.stddev(), big_ratio.stddev(), 0.05);
}

TEST(Perturb, NegativeScaleRejected)
{
    const WeightedGraph g = denseGraph(3);
    Rng rng(1);
    EXPECT_THROW(perturb(g, -0.1, rng), TopoError);
}

} // namespace
} // namespace topo
