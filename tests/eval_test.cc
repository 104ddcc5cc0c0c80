/**
 * @file
 * Tests for the evaluation harness: ProfileBundle, runComparison,
 * conflict metrics, layout offsets, and the Table 1 reporter.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <thread>
#include <vector>

#include "topo/eval/conflict_metric.hh"
#include "topo/eval/experiment.hh"
#include "topo/eval/reports.hh"
#include "topo/placement/cache_coloring.hh"
#include "topo/placement/gbsc.hh"
#include "topo/placement/pettis_hansen.hh"
#include "topo/placement/placement_table.hh"
#include "topo/util/error.hh"
#include "topo/workload/synthetic_program.hh"
#include "test_support.hh"

namespace topo
{
namespace
{

/** A small, fast benchmark case for harness tests. */
BenchmarkCase
miniCase()
{
    SyntheticSpec spec;
    spec.name = "mini";
    spec.proc_count = 50;
    spec.total_bytes = 100 * 1024;
    spec.popular_count = 16;
    spec.popular_bytes = 30 * 1024;
    spec.phase_count = 3;
    spec.ranks = 3;
    spec.seed = 99;
    BenchmarkCase bench;
    bench.name = spec.name;
    bench.model = buildSyntheticWorkload(spec);
    bench.train.name = "train";
    bench.train.seed = 1;
    bench.train.target_runs = 30000;
    bench.test.name = "test";
    bench.test.seed = 2;
    bench.test.target_runs = 30000;
    return bench;
}

EvalOptions
miniOptions()
{
    EvalOptions opts;
    opts.cache = CacheConfig{4096, 32, 1};
    return opts;
}

class EvalFixture : public ::testing::Test
{
  protected:
    EvalFixture() : bundle_(miniCase(), miniOptions()) {}
    ProfileBundle bundle_;
};

TEST_F(EvalFixture, MergedProfilesAddTheirCountsAndWeights)
{
    const TrainingProfile &train = bundle_.profile();
    const TraceProfile test = buildProfile(bundle_.program(),
                                           bundle_.testTrace(),
                                           bundle_.options());
    TraceProfile merged = train;
    merged.merge(test);
    std::size_t touched = 0;
    for (std::size_t i = 0; i < merged.stats.run_count.size(); ++i) {
        EXPECT_EQ(merged.stats.run_count[i],
                  train.stats.run_count[i] + test.stats.run_count[i]);
        EXPECT_EQ(merged.stats.bytes_fetched[i],
                  train.stats.bytes_fetched[i] +
                      test.stats.bytes_fetched[i]);
        touched += merged.stats.run_count[i] > 0 ? 1 : 0;
    }
    EXPECT_EQ(merged.stats.procsTouched(), touched);
    EXPECT_EQ(merged.stats.total_runs,
              train.stats.total_runs + test.stats.total_runs);
    // TRG weights are integer counts, so the sums are exact.
    EXPECT_EQ(merged.trg_select.totalWeight(),
              train.trg_select.totalWeight() +
                  test.trg_select.totalWeight());
    EXPECT_EQ(merged.wcg.totalWeight(),
              train.wcg.totalWeight() + test.wcg.totalWeight());
    EXPECT_EQ(merged.proc_steps, train.proc_steps + test.proc_steps);
    EXPECT_EQ(merged.queue_procs_sum,
              train.queue_procs_sum + test.queue_procs_sum);
    // A profile of another program does not merge.
    TraceProfile other;
    other.stats.run_count.assign(3, 0);
    EXPECT_THROW(merged.merge(other), TopoError);
}

TEST_F(EvalFixture, BundlePipelineConsistency)
{
    EXPECT_EQ(bundle_.name(), "mini");
    EXPECT_EQ(bundle_.program().procCount(), 50u);
    EXPECT_GE(bundle_.trainTrace().size(), 30000u);
    EXPECT_GE(bundle_.testTrace().size(), 30000u);
    EXPECT_GT(bundle_.profile().popular.count, 0u);
    EXPECT_LE(bundle_.profile().popular.count, 50u);
    EXPECT_GT(bundle_.wcg().edgeCount(), 0u);
    EXPECT_GT(bundle_.trgSelect().edgeCount(), 0u);
    EXPECT_GT(bundle_.trgPlace().edgeCount(), 0u);
    EXPECT_GT(bundle_.profile().avgQueueProcs(), 1.0);
    // The TRG has at least the popular-popular interleavings the WCG
    // lacks: typically strictly more edges than popular WCG pairs.
    EXPECT_GT(bundle_.trgSelect().edgeCount(), 0u);
}

TEST_F(EvalFixture, ContextPointsIntoBundle)
{
    const PlacementContext ctx = bundle_.makeContext();
    EXPECT_EQ(ctx.program, &bundle_.program());
    EXPECT_EQ(ctx.wcg, &bundle_.wcg());
    EXPECT_EQ(ctx.trg_select, &bundle_.trgSelect());
    EXPECT_EQ(ctx.popular.size(), 50u);
    EXPECT_EQ(ctx.heat.size(), 50u);
    // Overrides replace the stored graphs.
    WeightedGraph other(50);
    const PlacementContext ctx2 = bundle_.makeContext(&other);
    EXPECT_EQ(ctx2.wcg, &other);
}

TEST_F(EvalFixture, MissRatesAreSane)
{
    const DefaultPlacement def;
    const Layout layout = def.place(bundle_.makeContext());
    const double test_mr = bundle_.testMissRate(layout);
    const double train_mr = bundle_.trainMissRate(layout);
    EXPECT_GT(test_mr, 0.0);
    EXPECT_LT(test_mr, 0.9);
    EXPECT_GT(train_mr, 0.0);
}

/**
 * Concurrent first calls of @p get must all see one expansion, equal
 * to a fresh expansion of @p trace.
 */
template <typename Get>
void
expectExpandsOnce(const ProfileBundle &bundle, const Trace &trace, Get get)
{
    std::vector<const FetchStream *> seen(4, nullptr);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < seen.size(); ++t)
        threads.emplace_back([&, t] { seen[t] = &get(); });
    for (std::thread &thread : threads)
        thread.join();
    for (const FetchStream *stream : seen)
        EXPECT_EQ(stream, seen[0]);
    const FetchStream fresh(bundle.program(), trace,
                            bundle.options().cache.line_bytes);
    EXPECT_EQ(seen[0]->runs(), fresh.runs());
    EXPECT_EQ(seen[0]->size(), fresh.size());
    EXPECT_GT(fresh.size(), 0u);
}

TEST_F(EvalFixture, TrainStreamExpandsOnceOnFirstUse)
{
    // The bundle defers the training stream, and a sampled bundle its
    // testing stream too.
    expectExpandsOnce(bundle_, bundle_.trainTrace(), [&]() -> auto & {
        return bundle_.trainStream();
    });
    EvalOptions options = miniOptions();
    options.sampling.mode = SampleMode::kSimpoint;
    const ProfileBundle sampled(miniCase(), options);
    ASSERT_TRUE(sampled.sampled());
    expectExpandsOnce(sampled, sampled.testTrace(), [&]() -> auto & {
        return sampled.testStream();
    });
}

TEST_F(EvalFixture, GbscBeatsDefaultOnTrain)
{
    // On its own training trace, GBSC must do no worse than the
    // arbitrary default layout (the fundamental sanity requirement).
    const DefaultPlacement def;
    const Gbsc gbsc;
    const PlacementContext ctx = bundle_.makeContext();
    const double default_mr = bundle_.trainMissRate(def.place(ctx));
    const double gbsc_mr = bundle_.trainMissRate(gbsc.place(ctx));
    EXPECT_LT(gbsc_mr, default_mr);
}

TEST_F(EvalFixture, RunComparisonShapes)
{
    const PettisHansen ph;
    const Gbsc gbsc;
    ComparisonOptions opts;
    opts.repetitions = 3;
    opts.scale = 0.1;
    const auto results = runComparison(bundle_, {&ph, &gbsc}, opts);
    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(results[0].algorithm, "PH");
    EXPECT_EQ(results[1].algorithm, "GBSC");
    for (const AlgorithmResult &res : results) {
        EXPECT_EQ(res.perturbed.size(), 3u);
        EXPECT_GT(res.unperturbed, 0.0);
        for (double mr : res.perturbed) {
            EXPECT_GT(mr, 0.0);
            EXPECT_LT(mr, 1.0);
        }
    }
}

TEST_F(EvalFixture, ComparisonDeterministicInSeed)
{
    const Gbsc gbsc;
    ComparisonOptions opts;
    opts.repetitions = 2;
    const auto a = runComparison(bundle_, {&gbsc}, opts);
    const auto b = runComparison(bundle_, {&gbsc}, opts);
    ASSERT_EQ(a[0].perturbed.size(), b[0].perturbed.size());
    for (std::size_t i = 0; i < a[0].perturbed.size(); ++i)
        EXPECT_DOUBLE_EQ(a[0].perturbed[i], b[0].perturbed[i]);
}

TEST_F(EvalFixture, LayoutOffsetsModuloCache)
{
    const DefaultPlacement def;
    const Layout layout = def.place(bundle_.makeContext());
    const auto offsets = layoutOffsets(bundle_.program(), layout,
                                       bundle_.options().cache);
    ASSERT_EQ(offsets.size(), 50u);
    for (std::size_t i = 0; i < offsets.size(); ++i) {
        EXPECT_LT(offsets[i], bundle_.options().cache.lineCount());
        EXPECT_EQ(offsets[i],
                  layout.startLine(static_cast<ProcId>(i), 32) % 128);
    }
}

TEST_F(EvalFixture, ConflictMetricsDiscriminateLayouts)
{
    // A GBSC layout must have a lower TRG conflict metric than the
    // default layout (that is exactly what it minimises greedily).
    const PlacementContext ctx = bundle_.makeContext();
    const DefaultPlacement def;
    const Gbsc gbsc;
    const Layout l_def = def.place(ctx);
    const Layout l_gbsc = gbsc.place(ctx);
    EXPECT_LT(trgConflictMetric(ctx, l_gbsc),
              trgConflictMetric(ctx, l_def));
    EXPECT_GE(wcgConflictMetric(ctx, l_def), 0.0);
}

TEST_F(EvalFixture, Table1RowAndPrinting)
{
    const BenchmarkCase bench = miniCase();
    const Table1Row row = computeTable1Row(bench, bundle_);
    EXPECT_EQ(row.name, "mini");
    EXPECT_EQ(row.all_count, 50u);
    EXPECT_GT(row.popular_count, 0u);
    EXPECT_GT(row.default_miss_rate, 0.0);
    EXPECT_GT(row.avg_queue_size, 0.0);
    std::ostringstream oss;
    printTable1(oss, {row});
    EXPECT_NE(oss.str().find("mini"), std::string::npos);
    EXPECT_NE(oss.str().find("Table 1"), std::string::npos);
}

TEST_F(EvalFixture, Figure5PanelPrinting)
{
    const Gbsc gbsc;
    ComparisonOptions opts;
    opts.repetitions = 2;
    const auto results = runComparison(bundle_, {&gbsc}, opts);
    std::ostringstream oss;
    printFigure5Panel(oss, "mini", 0.05, results);
    EXPECT_NE(oss.str().find("GBSC"), std::string::npos);
    EXPECT_NE(oss.str().find("default"), std::string::npos);
    EXPECT_NE(oss.str().find("fraction"), std::string::npos);
}

TEST(EvalOptionsParsing, ReadsKnobs)
{
    Options opts;
    opts.set("cache-kb", "16");
    opts.set("assoc", "2");
    opts.set("chunk-bytes", "128");
    opts.set("coverage", "0.9");
    const EvalOptions eval = evalOptionsFrom(opts);
    EXPECT_EQ(eval.cache.size_bytes, 16u * 1024u);
    EXPECT_EQ(eval.cache.associativity, 2u);
    EXPECT_EQ(eval.chunk_bytes, 128u);
    EXPECT_DOUBLE_EQ(eval.popularity.coverage, 0.9);
    EXPECT_DOUBLE_EQ(traceScaleFrom(opts), 1.0);
}

TEST(RunComparisonErrors, EmptyAlgorithmListRejected)
{
    const ProfileBundle bundle(miniCase(), miniOptions());
    EXPECT_THROW(runComparison(bundle, {}, {}), TopoError);
}

TEST(EvalGolden, SuiteLayoutsAtScale005)
{
    // Recorded through ProfileBundle at the commit before buildProfile
    // and the placement table replaced the hand-wired profile pipelines
    // and name resolvers. Any change to a layout address or a miss
    // count of the four algorithms fails here.
    static const PlacementGolden kGolden[] = {
        {"gcc",
         {{0xbd0d7e6ea903fea0ULL, 121208}, {0x767bdd1a335222b4ULL, 120746},
          {0xb084f6167ab96663ULL, 120752}, {0x8a27023417b01d15ULL, 119544}}},
        {"go",
         {{0xe651a5c469ec99f6ULL, 35907}, {0x177dd0138a523e9dULL, 36262},
          {0x5ad559ef4fd21a74ULL, 34832}, {0x0ad0f0d5776643feULL, 33023}}},
        {"ghostscript",
         {{0x2236d205d248febaULL, 27119}, {0xf6ff04937d7491d4ULL, 25940},
          {0x8f3cca812b83cfeeULL, 26294}, {0x77a2025eb7e51e78ULL, 21606}}},
        {"m88ksim",
         {{0xc67fbf15a1e4ec84ULL, 43145}, {0x0dd6ec07f857476aULL, 32544},
          {0x7465e8dc6a1b04aaULL, 23202}, {0x5e81f5a94ce6a295ULL, 4167}}},
        {"perl",
         {{0xe9d8441ae973e879ULL, 210247}, {0xc0686df3107e7b17ULL, 207424},
          {0x33fb24490a9d9256ULL, 203522}, {0xf1ee1a0d2ca99941ULL, 194011}}},
        {"vortex",
         {{0x1e6b962a94ebd244ULL, 47643}, {0xa1b2a10ee3627c60ULL, 47065},
          {0xb85fcb84e83ca35dULL, 45579}, {0xd9bfa32a41f6f067ULL, 40624}}},
    };
    for (const PlacementGolden &want : kGolden) {
        SCOPED_TRACE(want.name);
        const ProfileBundle bundle(paperBenchmark(want.name, 0.05),
                                   EvalOptions{});
        LayoutGolden got[4];
        for (std::size_t a = 0; a < 4; ++a) {
            const Layout layout =
                kPlacementTable[a].algorithm.place(bundle.makeContext());
            got[a] = {layoutHash(layout),
                      simulateLayout(bundle.program(), layout,
                                     bundle.testStream(),
                                     bundle.options().cache)
                          .misses};
        }
        expectGolden(want, got);
    }
}

TEST(EvalGolden, PerturbedComparisonMissRatesAtScale005)
{
    // Recorded before GBSC's alignment moved from per-merge chunk maps
    // to flat chunk spans. Perturbed weights are not integers, so a
    // change in how alignmentCost sums them can move a layout. Each
    // row holds the bits of the unperturbed miss rate and of the four
    // perturbed ones.
    static const WordGolden<5> kGolden[] = {
        {"PH",
         {0x3fba5e9fc65dbfecULL, 0x3fba4851250b1c31ULL,
          0x3fba643702b00e2bULL, 0x3fba71cce9bfbcf4ULL,
          0x3fba648ce2778dbeULL}},
        {"HKC",
         {0x3fba5ef5a6253f7fULL, 0x3fba52366e884fa6ULL,
          0x3fba6225740c7b75ULL, 0x3fba734108cae5c7ULL,
          0x3fba6ca82d2218ceULL}},
        {"GBSC",
         {0x3fba1b6c5294ea6aULL, 0x3fba042a61e25d39ULL,
          0x3fba194c73fac271ULL, 0x3fba11a3a904e17bULL,
          0x3fb9fdbc761d5009ULL}},
    };
    const ProfileBundle bundle(paperBenchmark("gcc", 0.05),
                               EvalOptions{});
    ComparisonOptions options;
    options.repetitions = 4;
    options.seed = 2024;
    const std::vector<const PlacementAlgorithm *> algorithms = {
        &placementEntry("ph").algorithm,
        &placementEntry("hkc").algorithm,
        &placementEntry("gbsc").algorithm};
    const std::vector<AlgorithmResult> results =
        runComparison(bundle, algorithms, options);
    ASSERT_EQ(results.size(), std::size(kGolden));
    for (std::size_t a = 0; a < results.size(); ++a) {
        SCOPED_TRACE(kGolden[a].name);
        EXPECT_EQ(results[a].algorithm, kGolden[a].name);
        ASSERT_EQ(results[a].perturbed.size(), 4u);
        std::uint64_t got[5] = {
            std::bit_cast<std::uint64_t>(results[a].unperturbed)};
        for (std::size_t r = 0; r < 4; ++r)
            got[r + 1] = std::bit_cast<std::uint64_t>(
                results[a].perturbed[r]);
        expectGolden(kGolden[a], got);
    }
}

} // namespace
} // namespace topo
