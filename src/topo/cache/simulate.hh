/**
 * @file
 * Layout miss-rate simulation: replay a FetchStream against a layout.
 *
 * This is the measurement instrument of every experiment in the paper:
 * given a layout (procedure base addresses) and the line-granularity
 * reference stream, count instruction-cache misses.
 *
 * Long replays (the paper's traces reach 146M blocks) can be
 * checkpointed and resumed bit-identically: a SimControl names a
 * checkpoint file and cadence, and a loaded SimCheckpoint restores
 * the cursor, counters, and raw cache state. Everything else the
 * replay consumes is re-derived from the tool's inputs and guarded by
 * a fingerprint.
 */

#ifndef TOPO_CACHE_SIMULATE_HH
#define TOPO_CACHE_SIMULATE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "topo/cache/cache_config.hh"
#include "topo/program/layout.hh"
#include "topo/resilience/checkpoint.hh"
#include "topo/trace/fetch_stream.hh"

namespace topo
{

class AttributionSink;
class TaxonomySink;
class TimelineRecorder;

/** Result of a cache simulation. */
struct SimResult
{
    /** References accounted for (equals the cursor; the full stream
     *  length when the run was not stopped early). */
    std::uint64_t accesses = 0;
    std::uint64_t misses = 0;
    /** Valid lines displaced by misses (cold fills excluded). */
    std::uint64_t evictions = 0;
    /** Per-procedure miss attribution (empty unless requested). */
    std::vector<std::uint64_t> misses_by_proc;
    /** False when the replay stopped at SimControl::stop_after. */
    bool completed = true;

    /** Miss rate in [0, 1]; 0 when there were no accesses. */
    double
    missRate() const
    {
        return accesses ? static_cast<double>(misses) /
                              static_cast<double>(accesses)
                        : 0.0;
    }
};

/**
 * Optional observation sinks fed by the replay loop. The loop is
 * compiled in two variants per cache model: batched (runs fed to the
 * cache whole) and per-fetch. Only a per-fetch hook selects the
 * per-fetch variant: a SimControl, an armed throw_io fault, per-
 * procedure attribution, or an attached sink. Logging and tracing never
 * do, so the default (unobserved) path is the same at every log level
 * and with or without a Chrome trace. The per-fetch variant credits
 * cache-resident repeats in closed form; a SimControl or throw_io
 * fault probe only cuts runs at its fetch indices. Observers do not
 * compose with checkpoint/resume: their state is not checkpointed,
 * so a resumed run would attribute only the tail.
 */
struct SimObservers
{
    /** Per-procedure / per-set / conflict-matrix attribution. */
    AttributionSink *attribution = nullptr;
    /** 3C miss classification + reuse-distance profiling. */
    TaxonomySink *taxonomy = nullptr;
    /** Windowed miss-rate / working-set sampling. */
    TimelineRecorder *timeline = nullptr;

    bool
    any() const
    {
        return attribution != nullptr || taxonomy != nullptr ||
               timeline != nullptr;
    }
};

/** Checkpoint/resume directives for one simulation. */
struct SimControl
{
    /** Restore this state before replaying (fingerprint-checked). */
    const SimCheckpoint *resume = nullptr;
    /** Write checkpoints here; empty disables checkpointing. */
    std::string checkpoint_path;
    /** References between periodic checkpoints (0 = only at stop). */
    std::uint64_t checkpoint_every = 0;
    /**
     * Stop after this absolute reference cursor, writing a final
     * checkpoint (0 = run to the end of the stream). Models a
     * preemption point for tests and operators.
     */
    std::uint64_t stop_after = 0;
};

/**
 * Fingerprint of everything that determines a replay: cache geometry,
 * layout base lines, stream length, and the attribution flag. Stored
 * in checkpoints so --resume refuses state from a different run.
 */
std::uint64_t simFingerprint(const Program &program, const Layout &layout,
                             const FetchStream &stream,
                             const CacheConfig &config, bool attribute);

/**
 * Simulate a fetch stream against a layout.
 *
 * @param program       Procedure inventory.
 * @param layout        Complete layout (validated by the caller or not;
 *                      base addresses are read directly).
 * @param stream        Line-granularity reference stream; its line size
 *                      must match @p config.
 * @param config        Cache geometry (any associativity).
 * @param attribute     When true, fill SimResult::misses_by_proc.
 * @param control       Optional checkpoint/resume directives.
 * @param observers     Optional attribution/timeline sinks (mutually
 *                      exclusive with @p control).
 */
SimResult simulateLayout(const Program &program, const Layout &layout,
                         const FetchStream &stream, const CacheConfig &config,
                         bool attribute = false,
                         const SimControl *control = nullptr,
                         const SimObservers *observers = nullptr);

/**
 * Miss rate shortcut for harness code.
 */
double layoutMissRate(const Program &program, const Layout &layout,
                      const FetchStream &stream, const CacheConfig &config);

} // namespace topo

#endif // TOPO_CACHE_SIMULATE_HH
