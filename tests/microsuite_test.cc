/**
 * @file
 * Expected-winner tests on the adversarial microsuite: each case has
 * a known structure and the algorithms must behave accordingly.
 */

#include <gtest/gtest.h>

#include "topo/cache/simulate.hh"
#include "topo/eval/experiment.hh"
#include "topo/placement/cache_coloring.hh"
#include "topo/placement/gbsc.hh"
#include "topo/placement/pettis_hansen.hh"
#include "topo/placement/placement_table.hh"
#include "topo/util/error.hh"
#include "topo/workload/microsuite.hh"
#include "test_support.hh"

namespace topo
{
namespace
{

/** Self-contained pipeline for one micro case. */
struct MicroPipeline
{
    MicroCase mc;
    TrainingProfile profile;
    FetchStream stream;

    explicit MicroPipeline(MicroCase micro)
        : mc(std::move(micro)),
          profile(buildProfile(mc.program, mc.trace,
                               EvalOptions{.cache = mc.cache})),
          stream(mc.program, mc.trace, mc.cache.line_bytes)
    {
    }

    PlacementContext context() const { return profile.context(); }

    double
    missRate(const Layout &layout) const
    {
        return layoutMissRate(mc.program, layout, stream, mc.cache);
    }
};

TEST(Microsuite, HasAllCases)
{
    const auto cases = microsuite();
    ASSERT_EQ(cases.size(), 5u);
    for (const MicroCase &mc : cases) {
        EXPECT_FALSE(mc.trace.empty()) << mc.name;
        mc.trace.validate(mc.program);
        mc.cache.validate();
        EXPECT_FALSE(mc.lesson.empty()) << mc.name;
    }
    EXPECT_THROW(microCase("unknown"), TopoError);
    EXPECT_EQ(microCase("thrash_pair").name, "thrash_pair");
}

TEST(Microsuite, ThrashPairSolvedByEveryProfileDrivenAlgorithm)
{
    MicroPipeline pipe(microCase("thrash_pair"));
    const PlacementContext ctx = pipe.context();
    const DefaultPlacement def;
    const double default_mr = pipe.missRate(def.place(ctx));
    // Both procedures fit together: a good layout is near-zero misses.
    const PettisHansen ph;
    const CacheColoring hkc;
    const Gbsc gbsc;
    EXPECT_LT(pipe.missRate(ph.place(ctx)), 0.01);
    EXPECT_LT(pipe.missRate(hkc.place(ctx)), 0.01);
    EXPECT_LT(pipe.missRate(gbsc.place(ctx)), 0.01);
    EXPECT_GT(default_mr, 0.4); // the default layout thrashes
}

TEST(Microsuite, SiblingFanoutNeedsTemporalInformation)
{
    // Six 1KB siblings + 1KB dispatcher around a 4KB cache: someone
    // must share lines with someone. GBSC sees which siblings
    // interleave (round-robin neighbours) and must do at least as
    // well as the WCG-driven baselines, which cannot tell siblings
    // apart at all.
    MicroPipeline pipe(microCase("sibling_fanout"));
    const PlacementContext ctx = pipe.context();
    const PettisHansen ph;
    const CacheColoring hkc;
    const Gbsc gbsc;
    const double gbsc_mr = pipe.missRate(gbsc.place(ctx));
    EXPECT_LE(gbsc_mr, pipe.missRate(ph.place(ctx)));
    EXPECT_LE(gbsc_mr, pipe.missRate(hkc.place(ctx)));
}

TEST(Microsuite, PhaseFlipOverlapsAcrossPhasesOnly)
{
    // Each phase's three 2KB procedures (6KB) fit the 8KB cache; the
    // other phase may overlap them freely. GBSC must reach the
    // near-cold-only regime.
    MicroPipeline pipe(microCase("phase_flip"));
    const PlacementContext ctx = pipe.context();
    const Gbsc gbsc;
    const double gbsc_mr = pipe.missRate(gbsc.place(ctx));
    EXPECT_LT(gbsc_mr, 0.02);
}

TEST(Microsuite, GiantProcNeedsChunkInformation)
{
    // The helper must dodge the giant's two hot windows; whole-
    // procedure information cannot distinguish any alignment. GBSC
    // must reach near-zero conflict.
    MicroPipeline pipe(microCase("giant_proc"));
    const PlacementContext ctx = pipe.context();
    const Gbsc gbsc;
    const PettisHansen ph;
    const double gbsc_mr = pipe.missRate(gbsc.place(ctx));
    EXPECT_LT(gbsc_mr, 0.01);
    EXPECT_LE(gbsc_mr, pipe.missRate(ph.place(ctx)));
}

TEST(Microsuite, ColdSandwichFixedByPlacement)
{
    MicroPipeline pipe(microCase("cold_sandwich"));
    const PlacementContext ctx = pipe.context();
    const DefaultPlacement def;
    const Gbsc gbsc;
    EXPECT_GT(pipe.missRate(def.place(ctx)), 0.3);
    EXPECT_LT(pipe.missRate(gbsc.place(ctx)), 0.01);
}

TEST(Microsuite, GoldenLayouts)
{
    // Recorded through the hand-wired microsuite pipeline at the commit
    // before buildProfile and the placement table replaced it. Any
    // change to a layout address or a miss count on the case's own
    // trace fails here.
    static const PlacementGolden kGolden[] = {
        {"thrash_pair",
         {{0x9562f702fe28aba1ULL, 576000}, {0x699eb9c3ce6fc8e9ULL, 192},
          {0x699eb9c3ce6fc8e9ULL, 192}, {0x699eb9c3ce6fc8e9ULL, 192}}},
        {"sibling_fanout",
         {{0xaffd174b68215411ULL, 154400}, {0xf036f73a8749ad11ULL, 100224},
          {0x74d43e1c612cb955ULL, 122240}, {0xb1b3f5fed34d0ed5ULL, 94400}}},
        {"phase_flip",
         {{0x976c09fc5f9496cdULL, 307328}, {0x2f5b7b53b49abb0dULL, 896},
          {0x21cd9c518af51e0dULL, 896}, {0xbf83900106f7295dULL, 896}}},
        {"cold_sandwich",
         {{0xcfa504f16524ae8dULL, 392009}, {0x5a0a2406c8e70057ULL, 107},
          {0x5a0a2406c8e70057ULL, 107}, {0x5a0a2406c8e70057ULL, 107}}},
        {"giant_proc",
         {{0x88a8f5ca0947db55ULL, 128400}, {0x88a8f5ca0947db55ULL, 128400},
          {0x88a8f5ca0947db55ULL, 128400}, {0x521a0b39324c756fULL, 416}}},
    };
    for (const PlacementGolden &want : kGolden) {
        SCOPED_TRACE(want.name);
        MicroPipeline pipe(microCase(want.name));
        LayoutGolden got[4];
        for (std::size_t a = 0; a < 4; ++a) {
            const Layout layout =
                kPlacementTable[a].algorithm.place(pipe.context());
            got[a] = {layoutHash(layout),
                      simulateLayout(pipe.mc.program, layout, pipe.stream,
                                     pipe.mc.cache)
                          .misses};
        }
        expectGolden(want, got);
    }
}

} // namespace
} // namespace topo
