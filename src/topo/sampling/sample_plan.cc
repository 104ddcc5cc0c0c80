#include "topo/sampling/sample_plan.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "topo/obs/log.hh"
#include "topo/obs/metrics.hh"
#include "topo/obs/phase_timer.hh"
#include "topo/sampling/kmeans.hh"
#include "topo/sampling/window_features.hh"
#include "topo/util/error.hh"
#include "topo/util/options.hh"

namespace topo
{

namespace
{

/** Auto window size: at most ~2048 windows, at least 512 runs each. */
std::uint64_t
autoWindowRuns(std::size_t run_count)
{
    const std::uint64_t ceil_div =
        (static_cast<std::uint64_t>(run_count) + 2047) / 2048;
    return std::max<std::uint64_t>(512, ceil_div);
}

/** Squared distance between a feature row and a centroid row. */
double
rowSqDistance(const double *a, const double *b, std::size_t dims)
{
    double sum = 0.0;
    for (std::size_t d = 0; d < dims; ++d) {
        const double diff = a[d] - b[d];
        sum += diff * diff;
    }
    return sum;
}

/** Whole-trace plan used when there is nothing to sample. */
SamplePlan
exactPlan(const Trace &trace, const TraceWindows &windows)
{
    SamplePlan plan;
    plan.mode = SampleMode::kSimpoint;
    plan.window_runs = windows.window_runs;
    plan.window_count = windows.count();
    plan.cluster_count = windows.count();
    plan.total_events = trace.size();
    plan.total_blocks = windows.totalBlocks();
    for (std::size_t w = 0; w < windows.count(); ++w)
        plan.selected.push_back(w);
    if (trace.size() > 0) {
        SampleSegment seg;
        seg.warm_begin = 0;
        seg.begin = 0;
        seg.end = trace.size();
        seg.scale = 1.0;
        plan.segments.push_back(seg);
        plan.replayed_events = trace.size();
    }
    return plan;
}

} // namespace

SamplePlan
buildSamplePlan(const Program &program, const Trace &trace,
                std::uint32_t line_bytes, const SamplingOptions &options)
{
    require(options.active(), "buildSamplePlan: sampling is off");
    PhaseTimer timer("sample_plan");

    const std::uint64_t window_runs =
        options.window_runs > 0 ? options.window_runs
                                : autoWindowRuns(trace.size());
    PhaseTimer windows_timer("windows");
    const TraceWindows windows =
        sliceTraceWindows(program, trace, window_runs, line_bytes);
    windows_timer.stop();
    const std::size_t count = windows.count();

    SamplePlan plan;
    if (count <= 1) {
        plan = exactPlan(trace, windows);
    } else {
        PhaseTimer features_timer("features");
        const WindowFeatureMatrix features =
            extractWindowFeatures(program, trace, windows, line_bytes);
        features_timer.stop();

        PhaseTimer kmeans_timer("kmeans");
        KMeansOptions kopts;
        kopts.seed = options.seed;
        KMeansResult clusters;
        if (options.k > 0) {
            clusters = kmeansCluster(
                features, std::min(options.k, count), kopts);
        } else {
            clusters = kmeansAuto(
                features, std::max<std::size_t>(options.max_k, 1),
                kopts);
        }
        kmeans_timer.stop();

        // Representative of each cluster: the member window closest to
        // the centroid, ties to the lowest window index (serial scan
        // in window order).
        std::vector<std::size_t> rep(clusters.k, count);
        std::vector<double> rep_d2(
            clusters.k, std::numeric_limits<double>::infinity());
        std::vector<std::uint64_t> cluster_blocks(clusters.k, 0);
        for (std::size_t w = 0; w < count; ++w) {
            const std::uint32_t c = clusters.assignment[w];
            cluster_blocks[c] += windows.blocks[w];
            const double d2 = rowSqDistance(
                features.row(w),
                &clusters.centroids[static_cast<std::size_t>(c) *
                                    features.dims],
                features.dims);
            if (d2 < rep_d2[c]) {
                rep_d2[c] = d2;
                rep[c] = w;
            }
        }

        plan.mode = SampleMode::kSimpoint;
        plan.window_runs = window_runs;
        plan.window_count = count;
        plan.cluster_count = clusters.k;
        plan.total_events = trace.size();
        plan.total_blocks = windows.totalBlocks();

        // Per selected window: weight = blocks its cluster stands for
        // over the representative's own blocks.
        std::vector<double> scale_of(count, 0.0);
        for (std::size_t c = 0; c < clusters.k; ++c) {
            if (rep[c] == count)
                continue; // empty cluster — no weight to carry
            plan.selected.push_back(rep[c]);
            const std::uint64_t own = windows.blocks[rep[c]];
            scale_of[rep[c]] =
                own > 0 ? static_cast<double>(cluster_blocks[c]) /
                              static_cast<double>(own)
                        : 0.0;
        }
        std::sort(plan.selected.begin(), plan.selected.end());

        // Merge contiguous identical-weight windows into segments and
        // attach the warm-up prefix. A segment starting at event 0
        // needs no warm-up; the degenerate all-windows plan therefore
        // collapses to one cold-start whole-trace segment.
        const std::uint64_t warmup_runs = options.warmup_runs > 0
                                              ? options.warmup_runs
                                              : window_runs;
        for (const std::size_t w : plan.selected) {
            const std::size_t begin = windows.event_begin[w];
            const std::size_t end = windows.event_begin[w + 1];
            const double scale = scale_of[w];
            if (!plan.segments.empty() &&
                plan.segments.back().end == begin &&
                plan.segments.back().scale == scale) {
                plan.segments.back().end = end;
                continue;
            }
            SampleSegment seg;
            seg.begin = begin;
            seg.end = end;
            seg.scale = scale;
            seg.warm_begin =
                begin > static_cast<std::size_t>(warmup_runs)
                    ? begin - static_cast<std::size_t>(warmup_runs)
                    : 0;
            plan.segments.push_back(seg);
        }
        for (const SampleSegment &seg : plan.segments)
            plan.replayed_events += seg.end - seg.warm_begin;
    }

    MetricsRegistry &metrics = MetricsRegistry::current();
    metrics.counter("sampling.plans").add();
    metrics.counter("sampling.windows").add(plan.window_count);
    metrics.counter("sampling.clusters").add(plan.cluster_count);
    metrics.counter("sampling.selected_windows").add(plan.selected.size());
    metrics.counter("sampling.replayed_events").add(plan.replayed_events);
    metrics.counter("sampling.total_events").add(plan.total_events);
    metrics.gauge("sampling.replayed_fraction")
        .set(plan.replayedFraction());

    if (logEnabled(LogLevel::kDebug)) {
        logDebug("sampling", "built sample plan",
                 {{"events", plan.total_events},
                  {"window_runs", plan.window_runs},
                  {"windows", plan.window_count},
                  {"clusters", plan.cluster_count},
                  {"segments", plan.segments.size()},
                  {"replayed_fraction", plan.replayedFraction()},
                  {"ms", timer.elapsedMs()}});
    }
    return plan;
}

SamplingOptions
samplingFrom(const Options &options)
{
    SamplingOptions sampling;
    const std::string mode = options.getString("sample", "off");
    if (mode == "off") {
        sampling.mode = SampleMode::kOff;
    } else if (mode == "simpoint") {
        sampling.mode = SampleMode::kSimpoint;
    } else {
        fail("unknown --sample mode '" + mode +
                 "'; did you mean --sample=simpoint?");
    }

    const std::int64_t window = options.getInt("sample-window", 0);
    require(window >= 0, "--sample-window must be >= 0 (0 = auto)");
    sampling.window_runs = static_cast<std::uint64_t>(window);

    const std::int64_t k = options.getInt("sample-k", 0);
    require(k >= 0, "--sample-k must be >= 0 (0 = auto)");
    sampling.k = static_cast<std::size_t>(k);

    const std::int64_t max_k = options.getInt("sample-max-k", 16);
    require(max_k >= 1, "--sample-max-k must be >= 1");
    sampling.max_k = static_cast<std::size_t>(max_k);

    const std::int64_t warmup = options.getInt("sample-warmup", 0);
    require(warmup >= 0, "--sample-warmup must be >= 0 (0 = one window)");
    sampling.warmup_runs = static_cast<std::uint64_t>(warmup);

    sampling.seed = static_cast<std::uint64_t>(
        options.getInt("sample-seed", 12345));

    sampling.verify = options.getBool("sample-verify", false);
    const double max_error = options.getDouble("sample-max-error", 0.0);
    require(std::isfinite(max_error) && max_error >= 0.0,
            "--sample-max-error must be a non-negative, finite number");
    require(max_error == 0.0 || sampling.verify,
            "--sample-max-error requires --sample-verify (the exact "
            "run that measures the error)");
    sampling.max_error = max_error;

    require(sampling.mode != SampleMode::kOff ||
                (!sampling.verify && sampling.window_runs == 0 &&
                 sampling.k == 0 && sampling.warmup_runs == 0),
            "--sample-* options require --sample=simpoint");
    return sampling;
}

} // namespace topo
