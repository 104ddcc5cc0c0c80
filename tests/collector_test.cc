/**
 * @file
 * Tests for the streaming profiling path (Section 4.4): the
 * TrgAccumulator and ProfileCollector must produce byte-identical
 * results to the batch builders.
 */

#include <gtest/gtest.h>

#include "topo/placement/popularity.hh"
#include "topo/profile/collector.hh"
#include "topo/profile/trg_builder.hh"
#include "topo/sampling/sampled_profile.hh"
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

void
expectSameProfile(const TraceProfile &a, const TraceProfile &b)
{
    EXPECT_EQ(a.stats.run_count, b.stats.run_count);
    EXPECT_EQ(a.stats.bytes_fetched, b.stats.bytes_fetched);
    EXPECT_EQ(a.stats.total_runs, b.stats.total_runs);
    EXPECT_EQ(a.stats.total_bytes, b.stats.total_bytes);
    EXPECT_EQ(a.stats.procsTouched(), b.stats.procsTouched());
    expectSameGraph(a.wcg, b.wcg);
    expectSameGraph(a.trg_select, b.trg_select);
    expectSameGraph(a.trg_place, b.trg_place);
    EXPECT_EQ(a.queue_procs_sum, b.queue_procs_sum);
    EXPECT_EQ(a.proc_steps, b.proc_steps);
    EXPECT_EQ(a.proc_evictions, b.proc_evictions);
    EXPECT_EQ(a.chunk_evictions, b.chunk_evictions);
}

TEST(ProfileCollector, MatchesBatchPipeline)
{
    const Scenario s;
    const Program &program = s.model.program;
    const TraceStats stats = computeTraceStats(program, s.trace);
    PopularityOptions popularity;
    popularity.coverage = 0.9;
    const PopularSet popular = selectPopular(program, stats, popularity);
    // The mask must drop some touched procedure to mean anything.
    ASSERT_LT(popular.count, stats.procsTouched());

    const ChunkMap chunks(program, 256);
    const std::vector<bool> *masks[] = {nullptr, &popular.mask};
    for (const std::vector<bool> *mask : masks) {
        CollectorOptions opts;
        opts.byte_budget = 4096;
        opts.chunk_bytes = 256;
        opts.popular = mask;
        ProfileCollector collector(program, opts);
        collector.onTrace(s.trace);
        EXPECT_EQ(collector.runCount(), s.trace.size());
        const TraceProfile streamed = collector.take();

        TrgBuildOptions trg_opts;
        trg_opts.byte_budget = 4096;
        trg_opts.popular = mask;
        const TraceProfile batch =
            buildTraceProfile(program, chunks, s.trace, stats, trg_opts,
                              nullptr, SamplingOptions{}, 64);
        expectSameProfile(streamed, batch);
        EXPECT_GT(streamed.proc_evictions, 0u);
        EXPECT_GT(streamed.chunk_evictions, 0u);
    }
}

TEST(ProfileCollector, RejectedRunChangesNothing)
{
    const Scenario s;
    const Program &program = s.model.program;
    CollectorOptions opts;
    opts.byte_budget = 8192;
    ProfileCollector clean(program, opts);
    clean.onTrace(s.trace);
    ProfileCollector rejecting(program, opts);

    const std::vector<TraceEvent> &events = s.trace.events();
    const std::size_t half = events.size() / 2;
    for (std::size_t i = 0; i < half; ++i)
        rejecting.onRun(events[i].proc, events[i].offset, events[i].length);
    // Each bad run names a procedure other than the last one, so a
    // late check would count a WCG transition.
    const ProcId other = events[half - 1].proc == 0 ? 1 : 0;
    const std::uint32_t size = program.proc(other).size_bytes;
    EXPECT_THROW(rejecting.onRun(9999, 0, 8), TopoError);
    EXPECT_THROW(rejecting.onRun(other, 0, 0), TopoError);
    EXPECT_THROW(rejecting.onRun(other, size - 1, 2), TopoError);
    EXPECT_THROW(rejecting.onProcedure(9999), TopoError);
    EXPECT_EQ(rejecting.runCount(), half);
    for (std::size_t i = half; i < events.size(); ++i)
        rejecting.onRun(events[i].proc, events[i].offset, events[i].length);

    EXPECT_EQ(rejecting.runCount(), clean.runCount());
    expectSameProfile(rejecting.take(), clean.take());
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
