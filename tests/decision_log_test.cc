/**
 * @file
 * Tests of the placement decision log: bounded recording with dropped
 * accounting, top-k alternative extraction, JSON round-trip through
 * readDecisionFile, the per-algorithm coverage invariant (every placed
 * procedure appears in at least one record), the guarantee that an
 * attached log never changes the layout, and an allocation bound on
 * the recording hot path.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "topo/eval/experiment.hh"
#include "topo/placement/cache_coloring.hh"
#include "topo/placement/decision_log.hh"
#include "topo/placement/gbsc.hh"
#include "topo/placement/gbsc_setassoc.hh"
#include "topo/placement/pettis_hansen.hh"
#include "topo/placement/splitting.hh"
#include "topo/util/error.hh"
#include "topo/workload/paper_suite.hh"
#include "alloc_counter.hh"
#include "test_support.hh"

namespace topo
{
namespace
{

TEST(DecisionLog, StepNumberingAndDroppedAccounting)
{
    DecisionLog::Options options;
    options.max_records = 4;
    DecisionLog log(options);
    for (int i = 0; i < 10; ++i) {
        DecisionRecord rec;
        rec.kind = DecisionKind::kMerge;
        rec.stage = "test.stage";
        rec.a = 0;
        log.record(rec);
    }
    EXPECT_EQ(log.kept(), 4u);
    EXPECT_EQ(log.dropped(), 6u);
    // Steps stay monotone and 0-based over the kept prefix.
    for (std::size_t i = 0; i < log.records().size(); ++i)
        EXPECT_EQ(log.records()[i].step, i);
    log.clear();
    EXPECT_EQ(log.kept(), 0u);
    EXPECT_EQ(log.dropped(), 0u);
}

TEST(DecisionLog, RecordChoiceExtractsTopKAlternatives)
{
    DecisionLog log;
    // Costs: chosen=3 (cost 1.0); runner-ups must be 0 (2.0), 4 (2.0)
    // — tie broken by smaller choice — then 1 (5.0).
    const std::vector<double> cost = {2.0, 5.0, 9.0, 1.0, 2.0};
    log.recordChoice(DecisionKind::kColor, "test.align", 7, 8, 3.5, 3,
                     cost, "test-rule");
    ASSERT_EQ(log.kept(), 1u);
    const DecisionRecord &rec = log.records()[0];
    EXPECT_EQ(rec.kind, DecisionKind::kColor);
    EXPECT_EQ(rec.a, 7u);
    EXPECT_EQ(rec.b, 8u);
    EXPECT_DOUBLE_EQ(rec.weight, 3.5);
    EXPECT_EQ(rec.chosen, 3u);
    EXPECT_DOUBLE_EQ(rec.chosen_cost, 1.0);
    ASSERT_EQ(rec.alternative_count, 3u);
    EXPECT_EQ(rec.alternatives[0].choice, 0u);
    EXPECT_DOUBLE_EQ(rec.alternatives[0].cost, 2.0);
    EXPECT_EQ(rec.alternatives[1].choice, 4u);
    EXPECT_DOUBLE_EQ(rec.alternatives[1].cost, 2.0);
    EXPECT_EQ(rec.alternatives[2].choice, 1u);
    EXPECT_DOUBLE_EQ(rec.alternatives[2].cost, 5.0);
}

TEST(DecisionLog, KindNamesRoundTrip)
{
    const DecisionKind kinds[] = {
        DecisionKind::kMerge, DecisionKind::kPlace, DecisionKind::kColor,
        DecisionKind::kSplit, DecisionKind::kReject};
    for (DecisionKind kind : kinds)
        EXPECT_EQ(decisionKindFromName(decisionKindName(kind)), kind);
    EXPECT_THROW(decisionKindFromName("promote"), TopoError);
}

/** Shared profile over the small paper benchmark. */
class DecisionCoverage : public ::testing::Test
{
  protected:
    static const ProfileBundle &
    bundle()
    {
        static const ProfileBundle instance(paperBenchmark("gcc", 0.01),
                                            EvalOptions{});
        return instance;
    }
};

TEST_F(DecisionCoverage, EveryAlgorithmCoversEveryProcedure)
{
    const PettisHansen ph;
    const CacheColoring hkc;
    const Gbsc gbsc;
    const DefaultPlacement def;
    const PlacementAlgorithm *algorithms[] = {&ph, &hkc, &gbsc, &def};
    for (const PlacementAlgorithm *algorithm : algorithms) {
        DecisionLog log;
        log.setAlgorithm(algorithm->name());
        PlacementContext ctx = bundle().makeContext();
        ctx.decisions = &log;
        const Layout layout = algorithm->place(ctx);
        EXPECT_TRUE(layout.complete()) << algorithm->name();
        EXPECT_GT(log.kept(), 0u) << algorithm->name();
        EXPECT_EQ(log.dropped(), 0u) << algorithm->name();
        // The coverage invariant: every placed procedure appears in at
        // least one decision record (each algorithm emits a kPlace per
        // procedure at emission time).
        EXPECT_DOUBLE_EQ(log.coverage(bundle().program()), 1.0)
            << algorithm->name();
        bool any_place = false;
        for (const DecisionRecord &rec : log.records())
            any_place = any_place || rec.kind == DecisionKind::kPlace;
        EXPECT_TRUE(any_place) << algorithm->name();
    }
}

TEST(DecisionCoverageSetAssoc, SetAssociativeGbscCoversEveryProcedure)
{
    // GbscSetAssoc demands an associative geometry; give it a 2-way
    // cache of the same size and check the same coverage invariant.
    EvalOptions eval;
    eval.cache.associativity = 2;
    const ProfileBundle bundle(paperBenchmark("gcc", 0.01), eval);
    const GbscSetAssoc gbsc_sa;
    DecisionLog log;
    log.setAlgorithm(gbsc_sa.name());
    PlacementContext ctx = bundle.makeContext();
    ctx.decisions = &log;
    const Layout layout = gbsc_sa.place(ctx);
    EXPECT_TRUE(layout.complete());
    EXPECT_GT(log.kept(), 0u);
    EXPECT_EQ(log.dropped(), 0u);
    EXPECT_DOUBLE_EQ(log.coverage(bundle.program()), 1.0);
    bool any_align = false;
    for (const DecisionRecord &rec : log.records())
        any_align = any_align ||
                    std::string(rec.stage) == "gbsc_sa.align";
    EXPECT_TRUE(any_align);
}

TEST_F(DecisionCoverage, AttachedLogNeverChangesTheLayout)
{
    const PettisHansen ph;
    const CacheColoring hkc;
    const Gbsc gbsc;
    const PlacementAlgorithm *algorithms[] = {&ph, &hkc, &gbsc};
    for (const PlacementAlgorithm *algorithm : algorithms) {
        PlacementContext plain = bundle().makeContext();
        const Layout without = algorithm->place(plain);
        DecisionLog log;
        PlacementContext logged = bundle().makeContext();
        logged.decisions = &log;
        const Layout with = algorithm->place(logged);
        for (ProcId p = 0; p < bundle().program().procCount(); ++p) {
            ASSERT_EQ(without.address(p), with.address(p))
                << algorithm->name() << ": procedure "
                << bundle().program().proc(p).name;
        }
    }
}

TEST_F(DecisionCoverage, JsonRoundTripThroughDecisionFile)
{
    const Gbsc gbsc;
    DecisionLog log;
    log.setAlgorithm("gbsc");
    log.setCache(bundle().options().cache);
    PlacementContext ctx = bundle().makeContext();
    ctx.decisions = &log;
    gbsc.place(ctx);

    const TestTempDir tmp;
    const std::string path = tmp.file("decision_log_test.json");
    {
        std::ofstream os(path);
        log.toJson(bundle().program()).write(os);
        os << "\n";
    }
    const LoadedDecisions loaded = readDecisionFile(path);
    std::remove(path.c_str());
    EXPECT_EQ(loaded.algorithm, "gbsc");
    EXPECT_EQ(loaded.kept, log.kept());
    EXPECT_EQ(loaded.dropped, log.dropped());
    ASSERT_EQ(loaded.rows.size(), log.records().size());

    // The in-memory snapshot must equal the file round-trip.
    const LoadedDecisions snap =
        snapshotDecisions(log, bundle().program());
    ASSERT_EQ(snap.rows.size(), loaded.rows.size());
    for (std::size_t i = 0; i < snap.rows.size(); ++i) {
        EXPECT_EQ(snap.rows[i].step, loaded.rows[i].step) << i;
        EXPECT_EQ(snap.rows[i].kind, loaded.rows[i].kind) << i;
        EXPECT_EQ(snap.rows[i].stage, loaded.rows[i].stage) << i;
        EXPECT_EQ(snap.rows[i].proc_a, loaded.rows[i].proc_a) << i;
        EXPECT_EQ(snap.rows[i].proc_b, loaded.rows[i].proc_b) << i;
        EXPECT_EQ(snap.rows[i].chosen, loaded.rows[i].chosen) << i;
        EXPECT_EQ(snap.rows[i].tie_break, loaded.rows[i].tie_break)
            << i;
    }

    // rowsFor finds records mentioning a procedure in either role.
    const std::string first = bundle().program().proc(0).name;
    for (std::size_t idx : loaded.rowsFor(first)) {
        EXPECT_TRUE(loaded.rows[idx].proc_a == first ||
                    loaded.rows[idx].proc_b == first);
    }
}

TEST(DecisionLogErrors, CorruptDecisionFilesCarryTheCorruptCode)
{
    const TestTempDir tmp;
    const std::string path = tmp.file("decision_log_corrupt.json");
    const char *bodies[] = {
        "{ not json",
        "{\"kept\": 1}",
        "{\"topo_decisions\": 1, \"algorithm\": \"x\", \"kept\": 2,"
        " \"dropped\": 0, \"records\": []}",
        "{\"topo_decisions\": 1, \"algorithm\": \"x\", \"kept\": 1,"
        " \"dropped\": 0, \"records\": [{\"step\": 0, \"kind\":"
        " \"promote\", \"stage\": \"s\", \"proc_a\": \"a\","
        " \"proc_b\": \"\", \"weight\": 0, \"chosen\": 0,"
        " \"chosen_cost\": 0, \"tie_break\": \"t\"}]}",
    };
    for (const char *body : bodies) {
        {
            std::ofstream os(path);
            os << body;
        }
        try {
            readDecisionFile(path);
            FAIL() << "accepted: " << body;
        } catch (const TopoError &err) {
            EXPECT_EQ(err.code(), ErrCode::kCorrupt) << body;
        }
    }
    std::remove(path.c_str());
}

TEST(DecisionSplitting, SplitClassificationIsRecorded)
{
    // A procedure with one hot and three cold 256-byte chunks splits;
    // the split must leave a kSplit record naming the original and
    // carrying hot bytes as weight / cold bytes as the chosen value.
    Program program("split");
    const ProcId f = program.addProcedure("f", 1024);
    program.addProcedure("g", 512);
    Trace trace(2);
    for (int i = 0; i < 10; ++i) {
        trace.append(f, 0, 256);
        trace.append(1, 0, 512);
    }
    DecisionLog log;
    SplitOptions options;
    options.decisions = &log;
    const SplitProgram split =
        splitProcedures(program, trace, options);
    ASSERT_EQ(split.splitCount(), 1u);
    ASSERT_EQ(log.kept(), 1u);
    const DecisionRecord &rec = log.records()[0];
    EXPECT_EQ(rec.kind, DecisionKind::kSplit);
    EXPECT_EQ(std::string(rec.stage), "split.classify");
    EXPECT_EQ(rec.a, f);
    EXPECT_DOUBLE_EQ(rec.weight, 256.0); // hot bytes kept
    EXPECT_EQ(rec.chosen, 768u);         // cold bytes carved off
}

TEST(DecisionLogAllocation, RecordingWithinTheBoundIsAllocationFree)
{
    DecisionLog::Options options;
    options.max_records = 4096;
    DecisionLog log(options); // reserves capacity up front
    const std::vector<double> cost = {3.0, 1.0, 2.0, 4.0};

    const std::uint64_t before =
        g_allocs.load(std::memory_order_relaxed);
    for (std::uint32_t i = 0; i < 8192; ++i) {
        // Half land within the bound, half are dropped; neither path
        // may allocate — records past the bound are counted, not kept.
        log.recordChoice(DecisionKind::kMerge, "test.stage", i % 7,
                         (i + 1) % 7, 1.0, 1, cost, "test-rule");
    }
    const std::uint64_t after = g_allocs.load(std::memory_order_relaxed);
    EXPECT_EQ(after - before, 0u);
    EXPECT_EQ(log.kept(), 4096u);
    EXPECT_EQ(log.dropped(), 4096u);
}

} // namespace
} // namespace topo
