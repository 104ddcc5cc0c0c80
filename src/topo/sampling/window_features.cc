#include "topo/sampling/window_features.hh"

#include <algorithm>

#include "topo/exec/exec.hh"
#include "topo/obs/epoch_counter.hh"
#include "topo/trace/fetch_stream.hh"
#include "topo/util/error.hh"

namespace topo
{

std::uint64_t
TraceWindows::totalBlocks() const
{
    std::uint64_t total = 0;
    for (const std::uint64_t b : blocks)
        total += b;
    return total;
}

TraceWindows
sliceTraceWindows(const Program &program, const Trace &trace,
                  std::uint64_t window_runs, std::uint32_t line_bytes)
{
    require(window_runs > 0, "sliceTraceWindows: zero window size");
    require(line_bytes > 0, "sliceTraceWindows: zero line size");
    require(trace.procCount() == program.procCount(),
            "sliceTraceWindows: program/trace mismatch");
    const std::size_t n = trace.size();
    const std::size_t count =
        n == 0 ? 0
               : (n + static_cast<std::size_t>(window_runs) - 1) /
                     static_cast<std::size_t>(window_runs);

    TraceWindows windows;
    windows.window_runs = window_runs;
    windows.event_begin.resize(count + 1);
    windows.blocks.assign(count, 0);
    for (std::size_t w = 0; w <= count; ++w) {
        windows.event_begin[w] =
            std::min(n, w * static_cast<std::size_t>(window_runs));
    }
    windows.event_begin[count] = n;

    // One serial walk fills both the per-window and the per-procedure
    // line counts: each event's lines are worked out once.
    windows.proc_lines.assign(program.procCount(), 0);
    const std::vector<TraceEvent> &events = trace.events();
    for (std::size_t w = 0; w < count; ++w) {
        std::uint64_t blocks = 0;
        for (std::size_t i = windows.event_begin[w];
             i < windows.event_begin[w + 1]; ++i) {
            const std::uint32_t lines =
                eventLines(events[i], line_bytes).line_count;
            blocks += lines;
            windows.proc_lines[events[i].proc] += lines;
        }
        windows.blocks[w] = blocks;
    }
    return windows;
}

WindowFeatureMatrix
extractWindowFeatures(const Program &program, const Trace &trace,
                      const TraceWindows &windows,
                      std::uint32_t line_bytes, std::size_t top_procs)
{
    const std::vector<TraceEvent> &events = trace.events();
    const std::size_t proc_count = program.procCount();
    const std::size_t count = windows.count();

    // Global per-procedure line counts select the feature procedures:
    // the hottest ones carry the phase signal, everything else folds
    // into one bucket so the dimensionality stays fixed.
    const std::vector<std::uint64_t> &global_lines = windows.proc_lines;
    require(global_lines.size() == proc_count,
            "extractWindowFeatures: windows sliced for another program");
    std::vector<ProcId> hot(proc_count);
    for (std::size_t p = 0; p < proc_count; ++p)
        hot[p] = static_cast<ProcId>(p);
    std::sort(hot.begin(), hot.end(), [&](ProcId a, ProcId b) {
        if (global_lines[a] != global_lines[b])
            return global_lines[a] > global_lines[b];
        return a < b;
    });
    const std::size_t m = std::min(top_procs, proc_count);
    // feature_slot[p] = index into the per-window mix, m = "other".
    std::vector<std::uint32_t> feature_slot(proc_count,
                                            static_cast<std::uint32_t>(m));
    for (std::size_t i = 0; i < m; ++i)
        feature_slot[hot[i]] = static_cast<std::uint32_t>(i);

    WindowFeatureMatrix features;
    features.windows = count;
    features.dims = m + 4; // mix + other + distinct + granularity + repeat
    features.values.assign(count * features.dims, 0.0);

    parallelFor(count, [&](std::size_t w) {
        const std::size_t begin = windows.event_begin[w];
        const std::size_t end = windows.event_begin[w + 1];
        double *row = &features.values[w * features.dims];
        std::vector<std::uint64_t> mix(m + 1, 0);
        EpochCounter distinct(proc_count);
        std::uint64_t repeats = 0;
        for (std::size_t i = begin; i < end; ++i) {
            const TraceEvent &ev = events[i];
            mix[feature_slot[ev.proc]] +=
                eventLines(ev, line_bytes).line_count;
            distinct.touch(ev.proc);
            if (i > begin && ev.proc == events[i - 1].proc)
                ++repeats;
        }
        const double lines =
            static_cast<double>(std::max<std::uint64_t>(
                windows.blocks[w], 1));
        const double runs =
            static_cast<double>(std::max<std::size_t>(end - begin, 1));
        for (std::size_t i = 0; i <= m; ++i)
            row[i] = static_cast<double>(mix[i]) / lines;
        row[m + 1] = static_cast<double>(distinct.count()) /
                     static_cast<double>(std::max<std::size_t>(
                         proc_count, 1));
        row[m + 2] = runs / lines >= 1.0 ? 1.0 : runs / lines;
        row[m + 3] = static_cast<double>(repeats) / runs;
    });
    return features;
}

} // namespace topo
