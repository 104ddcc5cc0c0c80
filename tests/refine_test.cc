/**
 * @file
 * Tests for the metric-driven refinement pass: monotonicity, layout
 * validity, fixed-point behaviour, and end-to-end effect.
 */

#include <gtest/gtest.h>

#include "topo/eval/experiment.hh"
#include "topo/placement/gbsc.hh"
#include "topo/placement/refine.hh"
#include "topo/util/error.hh"
#include "topo/workload/microsuite.hh"
#include "topo/workload/synthetic_program.hh"

#include "topo/profile/perturb.hh"
#include "topo/util/rng.hh"

namespace topo
{
namespace
{

struct RefineFixture
{
    MicroCase mc;
    TrainingProfile profile;

    explicit RefineFixture(const std::string &name)
        : mc(microCase(name)),
          profile(buildProfile(mc.program, mc.trace,
                               EvalOptions{.cache = mc.cache}))
    {
    }

    PlacementContext context() const { return profile.context(); }
};

TEST(Refine, NeverIncreasesTheMetric)
{
    for (const char *name :
         {"thrash_pair", "sibling_fanout", "phase_flip", "giant_proc"}) {
        RefineFixture fx(name);
        const PlacementContext ctx = fx.context();
        const DefaultPlacement def;
        const Layout base = def.place(ctx);
        const RefineResult result = refineLayout(ctx, base);
        EXPECT_LE(result.final_metric, result.initial_metric) << name;
        result.layout.validate(fx.mc.program,
                               fx.mc.cache.line_bytes);
    }
}

TEST(Refine, FixesTheDefaultLayoutOnThrashPair)
{
    RefineFixture fx("thrash_pair");
    const PlacementContext ctx = fx.context();
    const DefaultPlacement def;
    const Layout base = def.place(ctx);
    const RefineResult result = refineLayout(ctx, base);
    EXPECT_GT(result.initial_metric, 0.0);
    EXPECT_DOUBLE_EQ(result.final_metric, 0.0);
    EXPECT_GT(result.moves, 0u);
    const FetchStream stream(fx.mc.program, fx.mc.trace,
                             fx.mc.cache.line_bytes);
    EXPECT_LT(layoutMissRate(fx.mc.program, result.layout, stream,
                             fx.mc.cache),
              0.01);
}

TEST(Refine, GbscLayoutIsNearFixedPoint)
{
    // GBSC already minimises the same metric greedily; refinement on
    // top must terminate quickly and never regress.
    RefineFixture fx("phase_flip");
    const PlacementContext ctx = fx.context();
    const Gbsc gbsc;
    const Layout base = gbsc.place(ctx);
    const RefineResult result = refineLayout(ctx, base);
    EXPECT_LE(result.final_metric, result.initial_metric);
    EXPECT_LE(result.passes, 4u);
}

TEST(Refine, StopsAtMaxPasses)
{
    RefineFixture fx("sibling_fanout");
    const PlacementContext ctx = fx.context();
    const DefaultPlacement def;
    RefineOptions opts;
    opts.max_passes = 1;
    const RefineResult result =
        refineLayout(ctx, def.place(ctx), opts);
    EXPECT_EQ(result.passes, 1u);
}

TEST(Refine, RequiresChunkInputs)
{
    RefineFixture fx("thrash_pair");
    PlacementContext ctx = fx.context();
    ctx.trg_place = nullptr;
    const DefaultPlacement def;
    PlacementContext def_ctx = fx.context();
    const Layout base = def.place(def_ctx);
    EXPECT_THROW(refineLayout(ctx, base), TopoError);
}

TEST(Refine, ImprovesPerturbedGbscOnSynthetic)
{
    // Build a synthetic workload, place with GBSC under a *perturbed*
    // profile (suboptimal for the true one), then refine against the
    // true TRG: the metric must improve.
    SyntheticSpec spec;
    spec.name = "refine";
    spec.proc_count = 60;
    spec.total_bytes = 120 * 1024;
    spec.popular_count = 20;
    spec.popular_bytes = 40 * 1024;
    spec.phase_count = 3;
    spec.ranks = 3;
    spec.seed = 5;
    BenchmarkCase bench;
    bench.name = spec.name;
    bench.model = buildSyntheticWorkload(spec);
    bench.train.target_runs = 25000;
    bench.train.seed = 6;
    bench.test = bench.train;
    EvalOptions eopts;
    eopts.cache = CacheConfig{4096, 32, 1};
    const ProfileBundle bundle(bench, eopts);

    Rng rng(17);
    const WeightedGraph noisy_sel =
        perturb(bundle.trgSelect(), 1.0, rng);
    const WeightedGraph noisy_plc = perturb(bundle.trgPlace(), 1.0, rng);
    const PlacementContext noisy_ctx =
        bundle.makeContext(nullptr, &noisy_sel, &noisy_plc);
    const Gbsc gbsc;
    const Layout noisy_layout = gbsc.place(noisy_ctx);

    const PlacementContext true_ctx = bundle.makeContext();
    const RefineResult result = refineLayout(true_ctx, noisy_layout);
    EXPECT_LT(result.final_metric, result.initial_metric);
}

} // namespace
} // namespace topo
