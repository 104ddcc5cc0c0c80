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
#include <cstring>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "topo/cache/simulate.hh"
#include "topo/eval/experiment.hh"
#include "topo/exec/exec.hh"
#include "topo/obs/metrics.hh"
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
            program.addProcedure(
                std::string("p").append(std::to_string(w)), 3 * 32);
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

/**
 * The reference Lloyd loop: every window-to-centre distance on every
 * iteration, strict < so ties keep the lowest centre index. It starts
 * from kmeansCluster's own k-means++ seeds, which a zero-iteration run
 * returns, and folds centroids and inertia in the same order.
 */
KMeansResult
fullScanKmeans(const WindowFeatureMatrix &features, std::size_t k,
               const KMeansOptions &options)
{
    const std::size_t n = features.windows;
    const std::size_t dims = features.dims;
    const auto sq = [dims](const double *a, const double *b) {
        double sum = 0.0;
        for (std::size_t d = 0; d < dims; ++d) {
            const double diff = a[d] - b[d];
            sum += diff * diff;
        }
        return sum;
    };
    KMeansOptions seeds_only = options;
    seeds_only.max_iterations = 0;
    KMeansResult result = kmeansCluster(features, k, seeds_only);

    std::vector<std::uint32_t> next(n, 0);
    for (std::size_t iter = 0; iter < options.max_iterations; ++iter) {
        for (std::size_t w = 0; w < n; ++w) {
            std::uint32_t best = 0;
            double best_d2 = sq(features.row(w), &result.centroids[0]);
            for (std::size_t c = 1; c < k; ++c) {
                const double d2 =
                    sq(features.row(w), &result.centroids[c * dims]);
                if (d2 < best_d2) {
                    best_d2 = d2;
                    best = static_cast<std::uint32_t>(c);
                }
            }
            next[w] = best;
        }
        result.iterations = iter + 1;
        const bool changed = next != result.assignment;
        result.assignment = next;
        if (!changed && iter > 0)
            break;
        std::vector<double> sums(k * dims, 0.0);
        std::vector<std::uint64_t> counts(k, 0);
        for (std::size_t w = 0; w < n; ++w) {
            const std::uint32_t c = result.assignment[w];
            for (std::size_t d = 0; d < dims; ++d)
                sums[c * dims + d] += features.row(w)[d];
            ++counts[c];
        }
        for (std::size_t c = 0; c < k; ++c) {
            if (counts[c] == 0)
                continue;
            const double inv = 1.0 / static_cast<double>(counts[c]);
            for (std::size_t d = 0; d < dims; ++d)
                result.centroids[c * dims + d] = sums[c * dims + d] * inv;
        }
        if (!changed)
            break;
    }
    result.cluster_size.assign(k, 0);
    result.inertia = 0.0;
    for (std::size_t w = 0; w < n; ++w) {
        const std::uint32_t c = result.assignment[w];
        ++result.cluster_size[c];
        result.inertia +=
            sq(features.row(w), &result.centroids[c * dims]);
    }
    return result;
}

/** kmeansCluster equals the full scan bit for bit at @p k. */
void
expectMatchesFullScan(const WindowFeatureMatrix &features, std::size_t k,
                      const KMeansOptions &options = {})
{
    SCOPED_TRACE("k=" + std::to_string(k) +
                 " seed=" + std::to_string(options.seed));
    const KMeansResult got = kmeansCluster(features, k, options);
    const KMeansResult want = fullScanKmeans(features, k, options);
    ASSERT_EQ(got.assignment.size(), want.assignment.size());
    ASSERT_EQ(got.centroids.size(), want.centroids.size());
    EXPECT_EQ(std::memcmp(got.assignment.data(), want.assignment.data(),
                          want.assignment.size() *
                              sizeof(want.assignment[0])),
              0);
    EXPECT_EQ(std::memcmp(got.centroids.data(), want.centroids.data(),
                          want.centroids.size() *
                              sizeof(want.centroids[0])),
              0);
    EXPECT_EQ(std::memcmp(&got.inertia, &want.inertia,
                          sizeof want.inertia),
              0);
    EXPECT_EQ(got.iterations, want.iterations);
    EXPECT_EQ(got.cluster_size, want.cluster_size);
}

/** A windows x dims matrix of the given rows. */
WindowFeatureMatrix
matrixOf(const std::vector<std::vector<double>> &rows)
{
    WindowFeatureMatrix m;
    m.windows = rows.size();
    m.dims = rows.front().size();
    for (const std::vector<double> &row : rows)
        m.values.insert(m.values.end(), row.begin(), row.end());
    return m;
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
    expectMatchesFullScan(features, features.windows);
}

TEST(KMeansOracle, SuiteFeaturesAtEveryK)
{
    for (const std::string &name : paperBenchmarkNames()) {
        SCOPED_TRACE(name);
        const WindowFeatureMatrix features =
            benchmarkFeatures(name.c_str(), 0.05, 256);
        ASSERT_GE(features.windows, 16u);
        for (std::size_t k = 1; k <= 16; ++k)
            expectMatchesFullScan(features, k);
    }
}

TEST(KMeansOracle, DuplicateRowsTie)
{
    // Every row three times over: duplicates tie exactly on every
    // distance, to every centre.
    const WindowFeatureMatrix base = benchmarkFeatures("m88ksim", 0.02, 256);
    WindowFeatureMatrix features = base;
    features.windows = 3 * base.windows;
    features.values.clear();
    for (std::size_t w = 0; w < base.windows; ++w)
        for (int copy = 0; copy < 3; ++copy)
            features.values.insert(features.values.end(), base.row(w),
                                   base.row(w) + base.dims);
    for (std::size_t k = 1; k <= 16; ++k)
        expectMatchesFullScan(features, k);
}

TEST(KMeansOracle, IdenticalRowsTieToCentreZero)
{
    // Identical rows seed coincident centres, so every distance ties
    // and every window must go to centre 0.
    const std::vector<std::vector<double>> same(
        12, std::vector<double>{0.25, 0.5, 0.125, 1.0});
    for (const std::size_t k : {1u, 2u, 5u, 12u}) {
        expectMatchesFullScan(matrixOf(same), k);
        const KMeansResult result =
            kmeansCluster(matrixOf(same), k, KMeansOptions{});
        EXPECT_EQ(result.cluster_size[0], same.size());
    }
}

TEST(KMeansOracle, EquidistantRowPicksTheLowerCentre)
{
    // Rows at 0, 0.5 and 1 on one axis. With the seeds on the two
    // outer rows, the middle row is exactly 0.25 (in d^2) from both
    // centres, and the first assignment must give it the lower index.
    const WindowFeatureMatrix features =
        matrixOf({{0.0, 0.5}, {0.5, 0.5}, {1.0, 0.5}});
    bool found = false;
    for (std::uint64_t seed = 1; seed < 64 && !found; ++seed) {
        KMeansOptions opts;
        opts.seed = seed;
        opts.max_iterations = 0;
        const KMeansResult seeds = kmeansCluster(features, 2, opts);
        if (seeds.centroids[0] == 0.5 || seeds.centroids[2] == 0.5)
            continue;
        found = true;
        opts.max_iterations = 1;
        const KMeansResult first = kmeansCluster(features, 2, opts);
        EXPECT_EQ(first.assignment[1], 0u) << "seed " << seed;
        expectMatchesFullScan(features, 2, opts);
        opts.max_iterations = KMeansOptions{}.max_iterations;
        expectMatchesFullScan(features, 2, opts);
    }
    EXPECT_TRUE(found);
}

TEST(KMeansOracle, RowsAFewUlpsApart)
{
    // Distances near 0, where a bound without slack can be off by a
    // rounding step either way.
    std::vector<std::vector<double>> rows;
    for (int i = 0; i < 48; ++i) {
        std::vector<double> row(36);
        for (std::size_t d = 0; d < row.size(); ++d) {
            double v = 0.25 + 0.02 * static_cast<double>(d);
            for (int step = 0; step < (i * 7 + static_cast<int>(d)) % 5;
                 ++step)
                v = std::nextafter(v, 1.0);
            row[d] = v;
        }
        rows.push_back(row);
    }
    const WindowFeatureMatrix features = matrixOf(rows);
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        KMeansOptions opts;
        opts.seed = seed;
        for (std::size_t k = 1; k <= 16; ++k)
            expectMatchesFullScan(features, k, opts);
    }
}

TEST(KMeansOracle, LatticeRowsWithExactTies)
{
    // Rows on a 1/16 grid: distances tie exactly and centres move along
    // parallel lines, so the triangle inequality holds with equality
    // and a bound without slack is one rounding step from skipping the
    // lower-index centre of a tie. A search over small grid matrices
    // found these two; both break a slack-free bound.
    const WindowFeatureMatrix nine = matrixOf(
        {{0.375, 0}, {0.375, 0.375}, {0.3125, 0.1875}, {0.0625, 0.125},
         {0.3125, 0.375}, {0.125, 0.5}, {0.125, 0.375}, {0.3125, 0.0625},
         {0.375, 0.1875}});
    const WindowFeatureMatrix six = matrixOf(
        {{0.375, 0.375}, {0.4375, 0.4375}, {0.375, 0}, {0.125, 0},
         {0.125, 0.5}, {0.3125, 0.3125}});
    KMeansOptions opts;
    opts.seed = 274;
    expectMatchesFullScan(nine, 4, opts);
    opts.seed = 716;
    expectMatchesFullScan(six, 3, opts);
}

TEST(KMeans, BoundsSkipMostDistances)
{
    // m88ksim at scale 0.25 on the plan's own windows, over the sweep
    // kmeansAuto runs: the assignment step computes under half of the
    // n * k distances per iteration a full scan would.
    const BenchmarkCase bench = paperBenchmark("m88ksim", 0.25);
    const Program &program = bench.model.program;
    const Trace trace = synthesizeTrace(bench.model, bench.train);
    const CacheConfig cache;
    SamplingOptions sampling;
    sampling.mode = SampleMode::kSimpoint;
    const SamplePlan plan =
        buildSamplePlan(program, trace, cache.line_bytes, sampling);
    const WindowFeatureMatrix features = extractWindowFeatures(
        program, trace,
        sliceTraceWindows(program, trace, plan.window_runs,
                          cache.line_bytes),
        cache.line_bytes);

    MetricsRegistry metrics;
    const MetricsScope scope(metrics);
    KMeansOptions opts;
    opts.seed = sampling.seed;
    std::uint64_t full_scan = 0;
    for (std::size_t k = 1; k <= 16; ++k) {
        const KMeansResult result = kmeansCluster(features, k, opts);
        full_scan += features.windows * k * result.iterations;
    }
    const std::uint64_t computed =
        metrics.counter("sampling.kmeans_distances").value();
    EXPECT_GT(computed, 0u);
    EXPECT_LT(computed, full_scan / 2)
        << computed << " of " << full_scan << " distances";
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

/** FNV-1a over a plan's cluster count, selection and segments. */
std::uint64_t
planHash(const SamplePlan &plan)
{
    std::uint64_t h = kFnvBasis;
    fnvMix(h, plan.cluster_count, 8);
    for (const std::size_t w : plan.selected)
        fnvMix(h, w, 8);
    for (const SampleSegment &seg : plan.segments) {
        fnvMix(h, seg.warm_begin, 8);
        fnvMix(h, seg.begin, 8);
        fnvMix(h, seg.end, 8);
        fnvMix(h, std::bit_cast<std::uint64_t>(seg.scale), 8);
    }
    return h;
}

/** FNV-1a over a clustering's assignment, centroid and inertia bits
 *  and iteration count. */
std::uint64_t
clusteringHash(const KMeansResult &result)
{
    std::uint64_t h = kFnvBasis;
    fnvMix(h, result.k, 8);
    for (const std::uint32_t c : result.assignment)
        fnvMix(h, c, 4);
    for (const double v : result.centroids)
        fnvMix(h, std::bit_cast<std::uint64_t>(v), 8);
    fnvMix(h, std::bit_cast<std::uint64_t>(result.inertia), 8);
    fnvMix(h, result.iterations, 8);
    return h;
}

TEST(SamplePlanGolden, SuitePlansAndClusterings)
{
    // Recorded before the Lloyd assignment step learned to skip
    // distances with triangle-inequality bounds. Each row holds the
    // plan hash of one benchmark input at one scale, and the hash of
    // kmeansAuto(features, 16) on the plan's own windows and seed.
    static const WordGolden<2> kGolden[] = {
        {"gcc train 0.05",
         {0x2bb2a126e9283ae7ULL, 0x454b298cdd5da691ULL}},
        {"gcc test 0.05",
         {0x893c0ab5cf3b4f83ULL, 0xca3b5944e3e2c79bULL}},
        {"gcc train 0.25",
         {0xebec8704e72a014eULL, 0x76031e0c5f2bdb4cULL}},
        {"gcc test 0.25",
         {0x4fcdd73acfb95ce9ULL, 0xdae097aafe2ca8f9ULL}},
        {"go train 0.05",
         {0x6ae6d5ed439c3054ULL, 0x120f112fbebf5327ULL}},
        {"go test 0.05",
         {0x80c88b057d0553c5ULL, 0x12fab1ba82b85409ULL}},
        {"go train 0.25",
         {0x95ad493d91c13c04ULL, 0x0349b36fa6dc8d81ULL}},
        {"go test 0.25",
         {0x8dfb53cd76318ab6ULL, 0x4c2ffd2ecbe18036ULL}},
        {"ghostscript train 0.05",
         {0xaa38d241b3ba2af5ULL, 0x3d3a9a1e686d4ef3ULL}},
        {"ghostscript test 0.05",
         {0xee71a544873693d7ULL, 0xa5b1812f4fd61623ULL}},
        {"ghostscript train 0.25",
         {0xdf7391c9529a40aaULL, 0xd1c93d9285657b58ULL}},
        {"ghostscript test 0.25",
         {0x1d40ac365a713a64ULL, 0x25a3fd876bb1f4e9ULL}},
        {"m88ksim train 0.05",
         {0x5c9f9e90545b1872ULL, 0x5eae8c8dba82edcbULL}},
        {"m88ksim test 0.05",
         {0x25a42a68d78a7fbeULL, 0x2d3efb530f269f18ULL}},
        {"m88ksim train 0.25",
         {0xbb3d7660c9aa1ecfULL, 0x9633eec9267312bdULL}},
        {"m88ksim test 0.25",
         {0x3929924dc43ffed6ULL, 0x1c9be16cded371faULL}},
        {"perl train 0.05",
         {0x7c4fc8f45e4b51b6ULL, 0xbb903d00e74535d3ULL}},
        {"perl test 0.05",
         {0x6a19c7eb8578dfaeULL, 0xb31517c07f14c522ULL}},
        {"perl train 0.25",
         {0xa0a389879f4ba02dULL, 0xfae29722abc0c716ULL}},
        {"perl test 0.25",
         {0x069b01a322939a93ULL, 0xe060d9c992f743daULL}},
        {"vortex train 0.05",
         {0xd47c64ac0863967dULL, 0x9d771248c8e822cdULL}},
        {"vortex test 0.05",
         {0xd1d43f5bf1dedfebULL, 0xd26dccdb8c8f4f8aULL}},
        {"vortex train 0.25",
         {0xd0d3b8702b79586fULL, 0x3de56ce9122e0df7ULL}},
        {"vortex test 0.25",
         {0xaffba9f485aae3e1ULL, 0x0fc02d31a8dfe6adULL}},
    };
    const CacheConfig cache;
    const SamplingOptions defaults;
    KMeansOptions kopts;
    kopts.seed = defaults.seed;
    std::size_t row = 0;
    for (const std::string &name : paperBenchmarkNames()) {
        for (const double scale : {0.05, 0.25}) {
            const BenchmarkCase bench = paperBenchmark(name, scale);
            const Program &program = bench.model.program;
            for (const bool train : {true, false}) {
                const Trace trace = synthesizeTrace(
                    bench.model, train ? bench.train : bench.test);
                SamplingOptions opts;
                opts.mode = SampleMode::kSimpoint;
                const SamplePlan plan = buildSamplePlan(
                    program, trace, cache.line_bytes, opts);
                const TraceWindows windows = sliceTraceWindows(
                    program, trace, plan.window_runs, cache.line_bytes);
                const WindowFeatureMatrix features = extractWindowFeatures(
                    program, trace, windows, cache.line_bytes);
                const std::uint64_t got[2] = {
                    planHash(plan),
                    clusteringHash(kmeansAuto(features, 16, kopts))};
                const std::string label =
                    name + (train ? " train " : " test ") +
                    (scale == 0.05 ? "0.05" : "0.25");
                if (row < std::size(kGolden)) {
                    EXPECT_EQ(label, kGolden[row].name);
                    expectGolden(kGolden[row], got);
                }
                ++row;
            }
        }
    }
    EXPECT_EQ(row, std::size(kGolden));
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
