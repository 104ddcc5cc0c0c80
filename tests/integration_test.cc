/**
 * @file
 * End-to-end integration tests across the whole pipeline: synthetic
 * workload -> traces -> profiles -> all placement algorithms -> cache
 * simulation. These encode the paper's qualitative expectations at a
 * laptop-test scale.
 */

#include <gtest/gtest.h>

#include "topo/eval/experiment.hh"
#include "topo/placement/cache_coloring.hh"
#include "topo/placement/gbsc.hh"
#include "topo/placement/gbsc_setassoc.hh"
#include "topo/placement/pettis_hansen.hh"
#include "topo/program/layout_script.hh"
#include "topo/workload/synthetic_program.hh"

#include <sstream>

namespace topo
{
namespace
{

BenchmarkCase
mediumCase(std::uint64_t seed = 1234)
{
    SyntheticSpec spec;
    spec.name = "medium";
    spec.proc_count = 120;
    spec.total_bytes = 260 * 1024;
    spec.popular_count = 40;
    spec.popular_bytes = 60 * 1024;
    spec.phase_count = 4;
    spec.ranks = 4;
    spec.seed = seed;
    BenchmarkCase bench;
    bench.name = spec.name;
    bench.model = buildSyntheticWorkload(spec);
    bench.train.name = "train";
    bench.train.seed = seed + 1;
    bench.train.target_runs = 60000;
    bench.train.phase_emphasis = {1.1, 0.9, 1.0, 1.0};
    bench.test.name = "test";
    bench.test.seed = seed + 2;
    bench.test.target_runs = 60000;
    bench.test.phase_emphasis = {0.9, 1.1, 1.0, 1.0};
    return bench;
}

class IntegrationFixture : public ::testing::Test
{
  protected:
    IntegrationFixture() : bundle_(mediumCase(), EvalOptions{}) {}
    ProfileBundle bundle_;
};

TEST_F(IntegrationFixture, AllAlgorithmsProduceValidLayouts)
{
    const PlacementContext ctx = bundle_.makeContext();
    const DefaultPlacement def;
    const PettisHansen ph;
    const CacheColoring hkc;
    const Gbsc gbsc;
    for (const PlacementAlgorithm *algo :
         std::initializer_list<const PlacementAlgorithm *>{&def, &ph,
                                                           &hkc, &gbsc}) {
        const Layout layout = algo->place(ctx);
        layout.validate(bundle_.program(),
                        bundle_.options().cache.line_bytes);
        const double mr = bundle_.testMissRate(layout);
        EXPECT_GT(mr, 0.0) << algo->name();
        EXPECT_LT(mr, 0.5) << algo->name();
    }
}

TEST_F(IntegrationFixture, OptimizedLayoutsBeatDefaultOnTest)
{
    // The paper's headline: profile-driven placement beats the default
    // layout even on a different input. GBSC must win outright; the
    // WCG-driven baselines are only required never to be meaningfully
    // worse (the paper's own m88ksim panel shows PH losing to the
    // default under train/test drift).
    const PlacementContext ctx = bundle_.makeContext();
    const DefaultPlacement def;
    const double default_mr = bundle_.testMissRate(def.place(ctx));
    const PettisHansen ph;
    const CacheColoring hkc;
    const Gbsc gbsc;
    EXPECT_LT(bundle_.testMissRate(ph.place(ctx)), default_mr * 1.05);
    EXPECT_LT(bundle_.testMissRate(hkc.place(ctx)), default_mr * 1.05);
    EXPECT_LT(bundle_.testMissRate(gbsc.place(ctx)), default_mr);
}

TEST_F(IntegrationFixture, GbscCompetitiveWithBaselinesOnTrain)
{
    // On the training input (no train/test drift), GBSC's extra
    // information must make it at least competitive with PH: allow a
    // small tolerance for greedy-tie noise on this small workload.
    const PlacementContext ctx = bundle_.makeContext();
    const PettisHansen ph;
    const Gbsc gbsc;
    const double ph_mr = bundle_.trainMissRate(ph.place(ctx));
    const double gbsc_mr = bundle_.trainMissRate(gbsc.place(ctx));
    EXPECT_LT(gbsc_mr, ph_mr * 1.10);
}

TEST_F(IntegrationFixture, LayoutsDifferAcrossAlgorithms)
{
    const PlacementContext ctx = bundle_.makeContext();
    const PettisHansen ph;
    const Gbsc gbsc;
    const Layout a = ph.place(ctx);
    const Layout b = gbsc.place(ctx);
    bool differs = false;
    for (ProcId i = 0; i < bundle_.program().procCount(); ++i)
        differs |= a.address(i) != b.address(i);
    EXPECT_TRUE(differs);
}

TEST_F(IntegrationFixture, LinkerScriptForRealLayout)
{
    const PlacementContext ctx = bundle_.makeContext();
    const Gbsc gbsc;
    const Layout layout = gbsc.place(ctx);
    std::ostringstream oss;
    writeLinkerScript(oss, bundle_.program(), layout, 32);
    EXPECT_NE(oss.str().find("SECTIONS"), std::string::npos);
}

TEST(IntegrationSetAssoc, PairDrivenPlacementOnTwoWayCache)
{
    BenchmarkCase bench = mediumCase(777);
    bench.train.target_runs = 80000;
    bench.test.target_runs = 80000;
    EvalOptions opts;
    opts.cache = CacheConfig::paperTwoWay();
    opts.build_pairs = true;
    opts.pair_window = 16;
    opts.pair_prune = 1.5;
    const ProfileBundle bundle(bench, opts);
    EXPECT_GT(bundle.profile().pairs.size(), 0u);

    const PlacementContext ctx = bundle.makeContext();
    const GbscSetAssoc sa;
    const Layout layout = sa.place(ctx);
    layout.validate(bundle.program(), 32);
    const double sa_mr = bundle.testMissRate(layout);
    const DefaultPlacement def;
    const double def_mr = bundle.testMissRate(def.place(ctx));
    EXPECT_GT(sa_mr, 0.0);
    // This workload has little placement-recoverable conflict on a
    // 2-way cache; the requirement is "never meaningfully worse".
    EXPECT_LT(sa_mr, def_mr * 1.05);
}

TEST(IntegrationSetAssoc, BeatsDefaultOnPhasedWorkload)
{
    // m88ksim's phased model leaves a large conflict surface even on
    // a 2-way cache; here the pair database must pay off clearly.
    EvalOptions opts;
    opts.cache = CacheConfig::paperTwoWay();
    opts.build_pairs = true;
    opts.pair_window = 12;
    opts.pair_prune = 2.0;
    const BenchmarkCase bench = paperBenchmark("m88ksim", 0.05);
    const ProfileBundle bundle(bench, opts);
    const PlacementContext ctx = bundle.makeContext();
    const GbscSetAssoc sa;
    const DefaultPlacement def;
    const double sa_mr = bundle.testMissRate(sa.place(ctx));
    const double def_mr = bundle.testMissRate(def.place(ctx));
    EXPECT_LT(sa_mr, def_mr * 0.8);
}

TEST(IntegrationPadding, OneLinePaddingShiftsMissRate)
{
    // Section 5.1's observation: padding every procedure by one cache
    // line produces a *different* (usually worse for an optimised
    // layout) miss rate — layouts are a discontinuous optimisation
    // target.
    const ProfileBundle bundle(mediumCase(4321), EvalOptions{});
    const PlacementContext ctx = bundle.makeContext();
    const Gbsc gbsc;
    const Layout base = gbsc.place(ctx);
    const Layout padded =
        Layout::withPadding(base, bundle.program(), 32, 32);
    const double base_mr = bundle.testMissRate(base);
    const double padded_mr = bundle.testMissRate(padded);
    EXPECT_NE(base_mr, padded_mr);
}

TEST(IntegrationStability, DistinctTrainingSeedsStillBeatDefault)
{
    for (std::uint64_t seed : {11ULL, 22ULL}) {
        const ProfileBundle bundle(mediumCase(seed), EvalOptions{});
        const PlacementContext ctx = bundle.makeContext();
        const Gbsc gbsc;
        const DefaultPlacement def;
        EXPECT_LT(bundle.testMissRate(gbsc.place(ctx)),
                  bundle.testMissRate(def.place(ctx)))
            << "seed " << seed;
    }
}

} // namespace
} // namespace topo
