/**
 * @file
 * Process-wide execution configuration: the `--jobs N` / `TOPO_JOBS`
 * knob, the shared ThreadPool, and deterministic parallel helpers.
 *
 * Determinism contract (DESIGN.md §9): every parallel entry point in
 * the pipeline produces byte-identical output for any jobs value.
 * parallelMap guarantees the result vector is ordered by task index
 * (never by completion order); callers are responsible for keeping
 * task bodies independent and for merging side effects (metrics,
 * sampled profile segments) in fixed task order after the join.
 *
 * Until initExec runs, execJobs() is 1 and everything is serial —
 * library users and unit tests stay single-threaded unless they opt
 * in. Tools opt in through toolMain, which defaults --jobs to
 * hardwareJobs().
 */

#ifndef TOPO_EXEC_EXEC_HH
#define TOPO_EXEC_EXEC_HH

#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

#include "topo/exec/thread_pool.hh"
#include "topo/util/error.hh"
#include "topo/util/options.hh"

namespace topo
{

/**
 * Configure the execution layer from --jobs / TOPO_JOBS. Values < 1 or
 * non-numeric raise a user-error TopoError (exit code 1 in tools).
 * @param fallback Jobs when the option is absent (tools pass
 *                 hardwareJobs(); 0 means "keep the current setting").
 */
void initExec(const Options &opts, int fallback);

/** Set the jobs count directly (tests; pool is rebuilt lazily). */
void setExecJobs(int jobs);

/** Configured lane count; 1 until initExec/setExecJobs opt in. */
int execJobs();

/** The shared pool, created lazily with execJobs() lanes. */
ThreadPool &execPool();

/**
 * Run body(i) for i in [0, count) on the shared pool. Inline and in
 * strict index order when execJobs() == 1.
 */
void parallelFor(std::size_t count,
                 const std::function<void(std::size_t)> &body);

/**
 * Map [0, count) through fn on the shared pool; results land by task
 * index regardless of completion order, so the returned vector is
 * identical to the serial `for` loop's. T needs to be movable, not
 * default-constructible.
 */
template <typename Fn>
auto
parallelMap(std::size_t count, Fn &&fn)
    -> std::vector<decltype(fn(std::size_t{}))>
{
    using T = decltype(fn(std::size_t{}));
    std::vector<std::optional<T>> slots(count);
    parallelFor(count, [&](std::size_t i) { slots[i].emplace(fn(i)); });
    std::vector<T> out;
    out.reserve(count);
    for (std::optional<T> &slot : slots)
        out.push_back(std::move(*slot));
    return out;
}

} // namespace topo

#endif // TOPO_EXEC_EXEC_HH
