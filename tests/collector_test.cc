/**
 * @file
 * Tests for the streaming profiling path (Section 4.4): the
 * TrgAccumulator and ProfileCollector must produce byte-identical
 * results to the batch builders.
 */

#include <gtest/gtest.h>

#include "topo/profile/collector.hh"
#include "topo/profile/trg_builder.hh"
#include "topo/profile/wcg_builder.hh"
#include "topo/util/error.hh"
#include "topo/workload/synthetic_program.hh"
#include "topo/workload/trace_synthesizer.hh"

namespace topo
{
namespace
{

struct Scenario
{
    WorkloadModel model;
    Trace trace{0};

    Scenario()
    {
        SyntheticSpec spec;
        spec.name = "stream";
        spec.proc_count = 40;
        spec.total_bytes = 80 * 1024;
        spec.popular_count = 14;
        spec.popular_bytes = 24 * 1024;
        spec.phase_count = 3;
        spec.ranks = 3;
        spec.seed = 31;
        model = buildSyntheticWorkload(spec);
        WorkloadInput input;
        input.seed = 32;
        input.target_runs = 15000;
        trace = synthesizeTrace(model, input);
    }
};

void
expectSameGraph(const WeightedGraph &a, const WeightedGraph &b)
{
    ASSERT_EQ(a.nodeCount(), b.nodeCount());
    ASSERT_EQ(a.edgeCount(), b.edgeCount());
    for (const auto &e : a.edges())
        EXPECT_DOUBLE_EQ(e.weight, b.weight(e.u, e.v));
}

TEST(TrgAccumulator, MatchesBatchBuilder)
{
    const Scenario s;
    const ChunkMap chunks(s.model.program, 256);
    TrgBuildOptions opts;
    opts.byte_budget = 16 * 1024;

    const TrgBuildResult batch =
        buildTrgs(s.model.program, chunks, s.trace, opts);

    TrgAccumulator acc(s.model.program, chunks, opts);
    for (const TraceEvent &ev : s.trace.events())
        acc.onRun(ev.proc, ev.offset, ev.length);
    const TrgBuildResult streamed = acc.take();

    expectSameGraph(batch.select, streamed.select);
    expectSameGraph(batch.place, streamed.place);
    EXPECT_EQ(batch.proc_steps, streamed.proc_steps);
    EXPECT_DOUBLE_EQ(batch.avg_queue_procs, streamed.avg_queue_procs);
}

TEST(TrgAccumulator, TakeResetsSession)
{
    const Scenario s;
    const ChunkMap chunks(s.model.program, 256);
    TrgBuildOptions opts;
    opts.byte_budget = 16 * 1024;
    TrgAccumulator acc(s.model.program, chunks, opts);
    acc.onTrace(s.trace);
    const TrgBuildResult first = acc.take();
    // Second identical session must reproduce the first exactly.
    acc.onTrace(s.trace);
    const TrgBuildResult second = acc.take();
    expectSameGraph(first.select, second.select);
    EXPECT_EQ(first.proc_steps, second.proc_steps);
    // An empty session yields empty graphs.
    const TrgBuildResult empty = acc.take();
    EXPECT_EQ(empty.proc_steps, 0u);
    EXPECT_EQ(empty.select.edgeCount(), 0u);
}

TEST(TrgAccumulator, RejectsBadRuns)
{
    const Scenario s;
    const ChunkMap chunks(s.model.program, 256);
    TrgBuildOptions opts;
    opts.byte_budget = 4096;
    TrgAccumulator acc(s.model.program, chunks, opts);
    EXPECT_THROW(acc.onRun(9999, 0, 8), TopoError);
    EXPECT_THROW(acc.onRun(0, 0, 0), TopoError);
    const std::uint32_t size = s.model.program.proc(0).size_bytes;
    EXPECT_THROW(acc.onRun(0, size - 1, 2), TopoError);
}

TEST(ProfileCollector, MatchesBatchPipeline)
{
    const Scenario s;
    CollectorOptions opts;
    opts.byte_budget = 16 * 1024;
    opts.chunk_bytes = 256;
    ProfileCollector collector(s.model.program, opts);
    collector.onTrace(s.trace);
    EXPECT_EQ(collector.runCount(), s.trace.size());
    const TraceProfile profile = collector.take();

    const WeightedGraph wcg = buildWcg(s.model.program, s.trace);
    expectSameGraph(profile.wcg, wcg);

    const ChunkMap chunks(s.model.program, 256);
    TrgBuildOptions trg_opts;
    trg_opts.byte_budget = 16 * 1024;
    const TrgBuildResult batch =
        buildTrgs(s.model.program, chunks, s.trace, trg_opts);
    expectSameGraph(profile.trg_select, batch.select);
    expectSameGraph(profile.trg_place, batch.place);
    EXPECT_DOUBLE_EQ(profile.avgQueueProcs(), batch.avg_queue_procs);

    const TraceStats stats = computeTraceStats(s.model.program, s.trace);
    EXPECT_EQ(profile.stats.total_runs, stats.total_runs);
    EXPECT_EQ(profile.stats.total_bytes, stats.total_bytes);
    EXPECT_EQ(profile.stats.procs_touched, stats.procs_touched);
    for (std::size_t i = 0; i < stats.bytes_fetched.size(); ++i)
        EXPECT_EQ(profile.stats.bytes_fetched[i],
                  stats.bytes_fetched[i]);
}

TEST(ProfileCollector, OnProcedureIsWholeRun)
{
    Program program("p");
    const ProcId f = program.addProcedure("f", 300);
    CollectorOptions opts;
    opts.byte_budget = 4096;
    ProfileCollector collector(program, opts);
    collector.onProcedure(f);
    const TraceProfile profile = collector.take();
    EXPECT_EQ(profile.stats.bytes_fetched[f], 300u);
    EXPECT_EQ(profile.stats.total_runs, 1u);
}

TEST(ProfileCollector, GraphSelectionFlags)
{
    const Scenario s;
    CollectorOptions opts;
    opts.byte_budget = 8192;
    opts.build_wcg = false;
    opts.build_place = false;
    ProfileCollector collector(s.model.program, opts);
    collector.onTrace(s.trace);
    const TraceProfile profile = collector.take();
    EXPECT_EQ(profile.wcg.nodeCount(), 0u);
    EXPECT_EQ(profile.trg_place.nodeCount(), 0u);
    EXPECT_GT(profile.trg_select.edgeCount(), 0u);
}

TEST(ProfileCollector, PopularFilterOnlyAffectsTrgs)
{
    const Scenario s;
    std::vector<bool> nobody(s.model.program.procCount(), false);
    CollectorOptions opts;
    opts.byte_budget = 8192;
    opts.popular = &nobody;
    ProfileCollector collector(s.model.program, opts);
    collector.onTrace(s.trace);
    const TraceProfile profile = collector.take();
    EXPECT_EQ(profile.trg_select.edgeCount(), 0u);
    EXPECT_GT(profile.wcg.edgeCount(), 0u);       // unfiltered
    EXPECT_GT(profile.stats.total_runs, 0u);      // unfiltered
}

} // namespace
} // namespace topo
