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
#include "topo/util/error.hh"
#include "topo/workload/synthetic_program.hh"

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

TEST_F(EvalFixture, BundlePipelineConsistency)
{
    EXPECT_EQ(bundle_.name(), "mini");
    EXPECT_EQ(bundle_.program().procCount(), 50u);
    EXPECT_GE(bundle_.trainTrace().size(), 30000u);
    EXPECT_GE(bundle_.testTrace().size(), 30000u);
    EXPECT_GT(bundle_.popular().count, 0u);
    EXPECT_LE(bundle_.popular().count, 50u);
    EXPECT_GT(bundle_.wcg().edgeCount(), 0u);
    EXPECT_GT(bundle_.trgSelect().edgeCount(), 0u);
    EXPECT_GT(bundle_.trgPlace().edgeCount(), 0u);
    EXPECT_GT(bundle_.avgQueueProcs(), 1.0);
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

TEST_F(EvalFixture, TrainStreamExpandsOnceOnFirstUse)
{
    // The bundle defers the training stream; concurrent first calls
    // must all see one expansion equal to a fresh one.
    std::vector<const FetchStream *> seen(4, nullptr);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < seen.size(); ++t)
        threads.emplace_back([&, t] { seen[t] = &bundle_.trainStream(); });
    for (std::thread &thread : threads)
        thread.join();
    for (const FetchStream *stream : seen)
        EXPECT_EQ(stream, seen[0]);
    const FetchStream fresh(bundle_.program(), bundle_.trainTrace(),
                            bundle_.options().cache.line_bytes);
    EXPECT_EQ(seen[0]->lineIds(), fresh.lineIds());
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

} // namespace
} // namespace topo
