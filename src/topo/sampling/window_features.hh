/**
 * @file
 * Trace windowing and per-window behaviour vectors — stage 1 of the
 * representative-interval sampler (DESIGN.md §15).
 *
 * A trace is sliced into fixed-size windows of consecutive runs; each
 * window is summarised as a small feature vector capturing *what* the
 * window fetches (per-procedure line-fetch mix over the globally
 * hottest procedures) and *how* it fetches it (working-set breadth,
 * run granularity, same-procedure locality). Windows with similar
 * vectors exercise the cache similarly — the premise of SimPoint-style
 * sampling (Bueno et al.) — so clustering the vectors and simulating
 * one representative per cluster recovers the full-trace miss rate to
 * within a small, measurable error.
 *
 * Every feature lies in [0, 1] by construction, so plain Euclidean
 * distance weighs the dimensions comparably without normalisation
 * passes that would couple windows to each other.
 */

#ifndef TOPO_SAMPLING_WINDOW_FEATURES_HH
#define TOPO_SAMPLING_WINDOW_FEATURES_HH

#include <cstdint>
#include <vector>

#include "topo/program/program.hh"
#include "topo/trace/trace.hh"

namespace topo
{

/** Fixed-size slicing of a trace into run windows. */
struct TraceWindows
{
    /** Runs per window (last window may be shorter). */
    std::uint64_t window_runs = 0;
    /**
     * Event index of each window's first run, plus one trailing entry
     * equal to the trace length: window w spans events
     * [event_begin[w], event_begin[w + 1]).
     */
    std::vector<std::size_t> event_begin;
    /**
     * Cache-line fetches of each window at the slicing line size —
     * the exact FetchStream length of the window's events, computed
     * arithmetically without expanding the stream.
     */
    std::vector<std::uint64_t> blocks;
    /**
     * Cache-line fetches of each procedure over the whole trace, from
     * the same walk; the feature step ranks procedures by it.
     */
    std::vector<std::uint64_t> proc_lines;

    std::size_t count() const { return blocks.size(); }

    /** Total line fetches across all windows (the exact stream size). */
    std::uint64_t totalBlocks() const;
};

/** Row-major windows x dims feature matrix. */
struct WindowFeatureMatrix
{
    std::size_t windows = 0;
    std::size_t dims = 0;
    /** Row w starts at values[w * dims]. */
    std::vector<double> values;

    const double *row(std::size_t w) const { return &values[w * dims]; }
};

/**
 * Slice @p trace into windows of @p window_runs runs and compute each
 * window's and each procedure's exact line-fetch count at
 * @p line_bytes. One serial O(events) walk, no stream expansion.
 * Requires a validated trace and window_runs > 0.
 */
TraceWindows sliceTraceWindows(const Program &program, const Trace &trace,
                               std::uint64_t window_runs,
                               std::uint32_t line_bytes);

/**
 * Per-window behaviour vectors. Dimensions: line-fetch fraction of
 * each of the top @p top_procs procedures by global line count (ties
 * broken by procedure id), one "everything else" fraction, the
 * distinct-procedure fraction of the window, the run/line granularity
 * ratio, and the same-procedure repeat fraction. Deterministic and
 * jobs-invariant: window rows are computed independently (parallelFor
 * over disjoint rows) from per-window data only.
 */
WindowFeatureMatrix extractWindowFeatures(const Program &program,
                                          const Trace &trace,
                                          const TraceWindows &windows,
                                          std::uint32_t line_bytes,
                                          std::size_t top_procs = 32);

} // namespace topo

#endif // TOPO_SAMPLING_WINDOW_FEATURES_HH
