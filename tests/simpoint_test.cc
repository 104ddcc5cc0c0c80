/**
 * @file
 * Tests for the representative-interval sampler (DESIGN.md §15):
 * deterministic k-means, plan construction, the weighted estimator's
 * exactness anchors, and the end-to-end error bound on the paper
 * suite.
 */

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "topo/cache/simulate.hh"
#include "topo/eval/experiment.hh"
#include "topo/exec/exec.hh"
#include "topo/placement/popularity.hh"
#include "topo/program/layout.hh"
#include "topo/sampling/estimator.hh"
#include "topo/sampling/kmeans.hh"
#include "topo/sampling/sample_plan.hh"
#include "topo/sampling/sampled_profile.hh"
#include "topo/sampling/window_features.hh"
#include "topo/trace/trace_stats.hh"
#include "topo/util/error.hh"
#include "topo/workload/paper_suite.hh"
#include "topo/workload/trace_synthesizer.hh"

#include "test_support.hh"

namespace topo
{
namespace
{

/** Restore the previous jobs count on scope exit. */
struct JobsGuard
{
    int saved;
    JobsGuard() : saved(execJobs()) {}
    ~JobsGuard() { setExecJobs(saved); }
};

/** Events [begin, end) of @p trace as a standalone trace. */
Trace
subTrace(const Trace &trace, std::size_t begin, std::size_t end)
{
    Trace out(trace.procCount());
    for (std::size_t i = begin; i < end; ++i) {
        const TraceEvent &e = trace.events()[i];
        out.append(e.proc, e.offset, e.length);
    }
    return out;
}

/**
 * Two-phase workload: phase 1 alternates two procedures that conflict
 * in a direct-mapped cache (every fetch misses), phase 2 hammers a
 * third procedure (everything after the cold fetch hits). Window
 * boundaries align with the phase boundary.
 */
struct TwoPhase
{
    Program program{"two-phase"};
    ProcId a, b, c, pad;
    Trace trace{0};
    CacheConfig cache;

    TwoPhase(std::size_t phase_runs)
    {
        cache.size_bytes = 1024;
        cache.line_bytes = 64;
        cache.associativity = 1;
        a = program.addProcedure("a", 64);
        b = program.addProcedure("b", 64);
        c = program.addProcedure("c", 64);
        // Pad so a and b map to the same set in the 16-line cache.
        pad = program.addProcedure("pad", 15 * 64);
        trace = Trace(program.procCount());
        for (std::size_t i = 0; i < phase_runs; ++i)
            trace.append(i % 2 == 0 ? a : b, 0, 64);
        for (std::size_t i = 0; i < phase_runs; ++i)
            trace.append(c, 0, 64);
        trace.validate(program);
    }

    Layout
    layout() const
    {
        // Emit the pad procedure between a and b so they share a set:
        // a at line 0, pad covers lines 1..15, b at line 16 == set 0.
        return Layout::fromOrder(program, {a, pad, b, c},
                                 cache.line_bytes);
    }
};

/**
 * A trace of @p window_count windows where window w runs only
 * procedure w — every window's feature vector is distinct, so a
 * k == windows clustering yields singleton clusters.
 */
struct DistinctWindows
{
    Program program{"distinct"};
    Trace trace{0};
    CacheConfig cache;
    std::uint64_t window_runs;

    DistinctWindows(std::size_t window_count, std::uint64_t runs)
        : window_runs(runs)
    {
        for (std::size_t w = 0; w < window_count; ++w)
            program.addProcedure("p" + std::to_string(w), 3 * 32);
        trace = Trace(program.procCount());
        for (std::size_t w = 0; w < window_count; ++w)
            for (std::uint64_t r = 0; r < runs; ++r)
                trace.append(static_cast<ProcId>(w), 0, 3 * 32);
        trace.validate(program);
    }
};

WindowFeatureMatrix
benchmarkFeatures(const char *name, double scale, std::uint64_t window,
                  TraceWindows *out_windows = nullptr)
{
    const BenchmarkCase bench = paperBenchmark(name, scale);
    const Trace trace = synthesizeTrace(bench.model, bench.train);
    const TraceWindows windows =
        sliceTraceWindows(bench.model.program, trace, window, 32);
    if (out_windows != nullptr)
        *out_windows = windows;
    return extractWindowFeatures(bench.model.program, trace, windows, 32);
}

TEST(KMeans, DeterministicAcrossJobsAndReruns)
{
    JobsGuard guard;
    const WindowFeatureMatrix features =
        benchmarkFeatures("m88ksim", 0.02, 256);
    ASSERT_GE(features.windows, 8u);
    KMeansOptions opts;
    opts.seed = 7;

    setExecJobs(1);
    const KMeansResult serial = kmeansCluster(features, 4, opts);
    const KMeansResult serial_again = kmeansCluster(features, 4, opts);
    setExecJobs(4);
    const KMeansResult parallel = kmeansCluster(features, 4, opts);

    EXPECT_EQ(serial.assignment, serial_again.assignment);
    EXPECT_EQ(serial.assignment, parallel.assignment);
    EXPECT_EQ(serial.cluster_size, parallel.cluster_size);
    // Bit-identical FP state, not just equal clusterings.
    EXPECT_EQ(serial.centroids, parallel.centroids);
    EXPECT_EQ(serial.inertia, parallel.inertia);
    EXPECT_EQ(serial.iterations, parallel.iterations);
}

TEST(KMeans, AutoChoosesDeterministically)
{
    JobsGuard guard;
    const WindowFeatureMatrix features =
        benchmarkFeatures("m88ksim", 0.02, 256);
    setExecJobs(1);
    const KMeansResult serial = kmeansAuto(features, 8, KMeansOptions{});
    setExecJobs(4);
    const KMeansResult parallel = kmeansAuto(features, 8, KMeansOptions{});
    EXPECT_GE(serial.k, 1u);
    EXPECT_EQ(serial.k, parallel.k);
    EXPECT_EQ(serial.assignment, parallel.assignment);
    EXPECT_EQ(serial.inertia, parallel.inertia);
}

TEST(KMeans, ExactKEqualsWindowsGivesSingletons)
{
    const WindowFeatureMatrix features =
        benchmarkFeatures("perl", 0.02, 512);
    const KMeansResult result =
        kmeansCluster(features, features.windows, KMeansOptions{});
    ASSERT_EQ(result.k, features.windows);
    // Every non-empty cluster holds at most one window and the fit is
    // perfect when windows are distinct; inertia must be ~0 anyway.
    EXPECT_NEAR(result.inertia, 0.0, 1e-12);
}

TEST(SamplePlan, DegeneratePlanIsOneExactSegment)
{
    const DistinctWindows dw(8, 512);
    SamplingOptions opts;
    opts.mode = SampleMode::kSimpoint;
    opts.window_runs = dw.window_runs;
    opts.k = 8; // == window count: every window its own cluster
    const SamplePlan plan =
        buildSamplePlan(dw.program, dw.trace, dw.cache.line_bytes, opts);
    ASSERT_TRUE(plan.active());
    EXPECT_EQ(plan.window_count, 8u);
    EXPECT_EQ(plan.selected.size(), 8u);
    // All scales 1.0 and contiguous, so everything merges into one
    // whole-trace segment with no warm-up.
    ASSERT_EQ(plan.segments.size(), 1u);
    EXPECT_EQ(plan.segments[0].warm_begin, 0u);
    EXPECT_EQ(plan.segments[0].begin, 0u);
    EXPECT_EQ(plan.segments[0].end, dw.trace.size());
    EXPECT_EQ(plan.segments[0].scale, 1.0);
    EXPECT_EQ(plan.replayed_events, dw.trace.size());
}

TEST(Estimator, DegeneratePlanBitIdenticalToExact)
{
    const DistinctWindows dw(8, 512);
    SamplingOptions opts;
    opts.mode = SampleMode::kSimpoint;
    opts.window_runs = dw.window_runs;
    opts.k = 8;
    const SamplePlan plan =
        buildSamplePlan(dw.program, dw.trace, dw.cache.line_bytes, opts);
    const Layout layout =
        Layout::defaultOrder(dw.program, dw.cache.line_bytes);
    const SampledSimResult est = estimateLayout(
        dw.program, layout, dw.trace, plan, dw.cache, /*attribute=*/true);
    const FetchStream stream(dw.program, dw.trace, dw.cache.line_bytes);
    const SimResult exact = simulateLayout(dw.program, layout, stream,
                                           dw.cache, /*attribute=*/true);
    EXPECT_EQ(est.accesses, exact.accesses);
    // Scale 1.0, single cold segment: the weighted sum is one exact
    // integer count — require bit equality, not closeness.
    EXPECT_EQ(est.est_misses, static_cast<double>(exact.misses));
    ASSERT_EQ(est.est_misses_by_proc.size(), exact.misses_by_proc.size());
    for (std::size_t p = 0; p < exact.misses_by_proc.size(); ++p)
        EXPECT_EQ(est.est_misses_by_proc[p],
                  static_cast<double>(exact.misses_by_proc[p]))
            << "proc " << p;
}

TEST(Estimator, MatchesHandComputedWeightedSum)
{
    // Two clearly separated phases: the estimator's answer must equal
    // the weighted subtract-trick sum computed independently here, and
    // the analytic miss rate (phase 1 all-miss, phase 2 all-hit) pins
    // the estimate near 0.5.
    const TwoPhase tp(4096);
    SamplingOptions opts;
    opts.mode = SampleMode::kSimpoint;
    opts.window_runs = 1024;
    opts.k = 2;
    const SamplePlan plan =
        buildSamplePlan(tp.program, tp.trace, tp.cache.line_bytes, opts);
    ASSERT_EQ(plan.cluster_count, 2u);
    const Layout layout = tp.layout();
    const SampledSimResult est = estimateLayout(
        tp.program, layout, tp.trace, plan, tp.cache, /*attribute=*/false);

    double expected = 0.0;
    for (const SampleSegment &seg : plan.segments) {
        const Trace full = subTrace(tp.trace, seg.warm_begin, seg.end);
        const FetchStream full_stream(tp.program, full,
                                      tp.cache.line_bytes);
        std::uint64_t misses =
            simulateLayout(tp.program, layout, full_stream, tp.cache)
                .misses;
        if (seg.warm_begin < seg.begin) {
            const Trace warm =
                subTrace(tp.trace, seg.warm_begin, seg.begin);
            const FetchStream warm_stream(tp.program, warm,
                                          tp.cache.line_bytes);
            misses -= simulateLayout(tp.program, layout, warm_stream,
                                     tp.cache)
                          .misses;
        }
        expected += seg.scale * static_cast<double>(misses);
    }
    EXPECT_EQ(est.est_misses, expected);

    // Phase 1 misses on every fetch, phase 2 only on the cold one.
    EXPECT_NEAR(est.estMissRate(), 0.5, 0.02);
    const FetchStream stream(tp.program, tp.trace, tp.cache.line_bytes);
    const SimResult exact =
        simulateLayout(tp.program, layout, stream, tp.cache);
    EXPECT_NEAR(est.estMissRate(), exact.missRate(), 0.02);
}

TEST(Estimator, JobsInvariant)
{
    JobsGuard guard;
    const BenchmarkCase bench = paperBenchmark("vortex", 0.02);
    const Trace trace = synthesizeTrace(bench.model, bench.train);
    const CacheConfig cache;
    SamplingOptions opts;
    opts.mode = SampleMode::kSimpoint;
    opts.window_runs = 512;
    const SamplePlan plan = buildSamplePlan(bench.model.program, trace,
                                            cache.line_bytes,
                                            opts);
    const Layout layout = Layout::defaultOrder(
        bench.model.program, cache.line_bytes);

    setExecJobs(1);
    const SamplePlan plan_serial = buildSamplePlan(
        bench.model.program, trace, cache.line_bytes, opts);
    const SampledSimResult serial =
        estimateLayout(bench.model.program, layout, trace, plan,
                       cache, /*attribute=*/true);
    setExecJobs(4);
    const SamplePlan plan_parallel = buildSamplePlan(
        bench.model.program, trace, cache.line_bytes, opts);
    const SampledSimResult parallel =
        estimateLayout(bench.model.program, layout, trace, plan,
                       cache, /*attribute=*/true);

    EXPECT_EQ(plan_serial.selected, plan_parallel.selected);
    ASSERT_EQ(plan_serial.segments.size(), plan_parallel.segments.size());
    for (std::size_t s = 0; s < plan_serial.segments.size(); ++s) {
        EXPECT_EQ(plan_serial.segments[s].begin,
                  plan_parallel.segments[s].begin);
        EXPECT_EQ(plan_serial.segments[s].scale,
                  plan_parallel.segments[s].scale);
    }
    EXPECT_EQ(serial.accesses, parallel.accesses);
    EXPECT_EQ(serial.est_misses, parallel.est_misses);
    EXPECT_EQ(serial.est_misses_by_proc, parallel.est_misses_by_proc);
}

TEST(Estimator, ErrorBoundOnPaperSuite)
{
    // The acceptance bound of DESIGN.md §15: the sampled miss-rate
    // estimate stays within 2% absolute of the exact replay.
    for (const char *name : {"m88ksim", "gcc"}) {
        const BenchmarkCase bench = paperBenchmark(name, 0.05);
        const Trace trace = synthesizeTrace(bench.model, bench.test);
        const CacheConfig cache;
        SamplingOptions opts;
        opts.mode = SampleMode::kSimpoint;
        const SamplePlan plan = buildSamplePlan(
            bench.model.program, trace, cache.line_bytes,
            opts);
        EXPECT_LT(plan.replayedFraction(), 0.5) << name;
        const Layout layout = Layout::defaultOrder(
            bench.model.program, cache.line_bytes);
        const SampledSimResult est =
            estimateLayout(bench.model.program, layout, trace, plan,
                           cache, /*attribute=*/false);
        const FetchStream stream(bench.model.program, trace,
                                 cache.line_bytes);
        const SimResult exact = simulateLayout(bench.model.program,
                                               layout, stream,
                                               cache);
        EXPECT_EQ(est.accesses, exact.accesses) << name;
        EXPECT_NEAR(est.estMissRate(), exact.missRate(), 0.02) << name;
    }
}

TEST(SamplePlan, TinyTraceFallsBackToExact)
{
    const TwoPhase tp(64);
    SamplingOptions opts;
    opts.mode = SampleMode::kSimpoint;
    opts.window_runs = 100000; // one window covers everything
    const SamplePlan plan =
        buildSamplePlan(tp.program, tp.trace, tp.cache.line_bytes, opts);
    ASSERT_EQ(plan.segments.size(), 1u);
    EXPECT_EQ(plan.segments[0].begin, 0u);
    EXPECT_EQ(plan.segments[0].end, tp.trace.size());
    EXPECT_EQ(plan.segments[0].scale, 1.0);
}

TEST(SampledProfile, GoldenAtScale005)
{
    // {WCG, TRG_select, TRG_place edge hashes, proc_steps,
    // avg_queue_procs bits, proc and chunk evictions} of m88ksim's
    // sampled profile as the experiment pipeline builds it, at jobs 1
    // and 4 (segments then warm up and measure on pool threads).
    static const WordGolden<7> kWant = {
        "m88ksim",
        {0xf4e5ac66aea708e2ULL, 0x926e20f32ba85ff4ULL,
         0x97662dc51486a500ULL, 0x0000000000002563ULL,
         0x402ee2f6d108aafdULL, 0x0000000000000002ULL,
         0x0000000000000000ULL}};
    const JobsGuard guard;
    const EvalOptions eval;
    const BenchmarkCase bench = paperBenchmark(kWant.name, 0.05);
    const Program &program = bench.model.program;
    const Trace trace = synthesizeTrace(bench.model, bench.train);
    const PopularSet popular = selectPopular(
        program, computeTraceStats(program, trace), eval.popularity);
    const ChunkMap chunks(program, eval.chunk_bytes);
    TrgBuildOptions opts;
    opts.byte_budget = static_cast<std::uint64_t>(
        eval.q_budget_factor * eval.cache.size_bytes);
    opts.popular = &popular.mask;
    SamplingOptions sampling;
    sampling.mode = SampleMode::kSimpoint;
    const SamplePlan plan =
        buildSamplePlan(program, trace, eval.cache.line_bytes, sampling);
    for (const int jobs : {1, 4}) {
        SCOPED_TRACE("jobs=" + std::to_string(jobs));
        setExecJobs(jobs);
        const SampledProfileResult got =
            buildSampledProfile(program, chunks, trace, plan, opts);
        const std::uint64_t words[7] = {
            edgeHash(got.wcg),
            edgeHash(got.trg_select),
            edgeHash(got.trg_place),
            got.proc_steps,
            std::bit_cast<std::uint64_t>(got.avg_queue_procs),
            got.proc_evictions,
            got.chunk_evictions};
        expectGolden(kWant, words);
    }
}

} // namespace
} // namespace topo
