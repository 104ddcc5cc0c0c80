/**
 * @file
 * AttributionSink: optional per-procedure / per-set miss attribution
 * for the cache simulator.
 *
 * The paper's argument is explanatory — the TRG sees *which*
 * procedures conflict in the cache — so the simulator can, on request,
 * record exactly that: per-procedure fetch/miss counters, per-set
 * access/miss pressure, and a sparse evictor→victim procedure
 * conflict matrix. The sink is entirely off the default replay path
 * (a separate template instantiation of the replay loop); when absent
 * the simulator is bit- and branch-identical to the unobserved build.
 *
 * Memory bounds: the per-procedure and per-set vectors are fixed at
 * construction (procCount and setCount entries), and the conflict
 * matrix holds at most Options::max_pairs distinct (evictor, victim)
 * cells — once full, evictions over unseen pairs are tallied in
 * droppedPairs() instead of growing the map. Hot workloads touch far
 * fewer distinct pairs than the default cap.
 */

#ifndef TOPO_CACHE_ATTRIBUTION_HH
#define TOPO_CACHE_ATTRIBUTION_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "topo/cache/cache_config.hh"
#include "topo/obs/json.hh"
#include "topo/program/layout.hh"
#include "topo/program/program.hh"

namespace topo
{

/** One cell of the procedure conflict matrix. */
struct ConflictPair
{
    ProcId evictor = kInvalidProc;
    ProcId victim = kInvalidProc;
    std::uint64_t count = 0;
};

/** Memory bounds of an AttributionSink. */
struct AttributionOptions
{
    /** Conflict-matrix cell budget (bounded memory). */
    std::size_t max_pairs = 4096;
};

/** Per-procedure / per-set miss attribution for one simulation. */
class AttributionSink
{
  public:
    using Options = AttributionOptions;

    /**
     * Build a sink for one (program, layout, cache) triple. The layout
     * is used to resolve evicted line addresses back to the procedure
     * that owned them.
     *
     * @param program    Procedure inventory.
     * @param layout     The layout being simulated (complete).
     * @param config     Cache geometry of the simulation.
     * @param line_bytes Line size the fetch stream was expanded at.
     * @param options    Memory bounds.
     */
    AttributionSink(const Program &program, const Layout &layout,
                    const CacheConfig &config, std::uint32_t line_bytes,
                    Options options = {});

    /** Record one access (hit or miss) by @p proc mapping to @p set. */
    void
    recordAccess(ProcId proc, std::uint32_t set)
    {
        ++fetches_by_proc_[proc];
        ++accesses_by_set_[set];
    }

    /**
     * Record a miss: @p proc fetched into @p set; unless the fill took
     * an empty way (@p victim_line == kInvalidLineAddr), the displaced
     * line is attributed to its owning procedure in the conflict
     * matrix.
     */
    void recordMiss(ProcId proc, std::uint32_t set,
                    std::uint64_t victim_line);

    /** Line fetches issued by each procedure. */
    const std::vector<std::uint64_t> &fetchesByProc() const
    {
        return fetches_by_proc_;
    }
    /** Misses charged to each (fetching) procedure. */
    const std::vector<std::uint64_t> &missesByProc() const
    {
        return misses_by_proc_;
    }
    /** Accesses landing in each cache set. */
    const std::vector<std::uint64_t> &accessesBySet() const
    {
        return accesses_by_set_;
    }
    /** Misses landing in each cache set. */
    const std::vector<std::uint64_t> &missesBySet() const
    {
        return misses_by_set_;
    }

    /** Total valid-line evictions the sink has attributed. */
    std::uint64_t evictions() const { return evictions_; }

    /** Evictions dropped because the pair budget was exhausted. */
    std::uint64_t droppedPairs() const { return dropped_pairs_; }

    /** Distinct (evictor, victim) cells currently tracked. */
    std::size_t trackedPairs() const { return pairs_.size(); }

    /**
     * The @p k heaviest conflict-matrix cells, by descending count
     * (ties broken by (evictor, victim) id for determinism).
     */
    std::vector<ConflictPair> topPairs(std::size_t k) const;

    /**
     * Procedure owning a global line address under the sink's layout;
     * kInvalidProc for gap/padding lines no procedure covers.
     */
    ProcId procAtLine(std::uint64_t line_addr) const;

    /**
     * JSON summary: per-procedure and per-set counters plus the top
     * @p top_k conflict pairs (procedure names resolved).
     */
    JsonValue toJson(std::size_t top_k = 16) const;

  private:
    /** One procedure's [first_line, end_line) footprint. */
    struct Extent
    {
        std::uint64_t first_line;
        std::uint64_t end_line;
        ProcId proc;
    };

    const Program *program_;
    Options options_;
    std::vector<Extent> extents_; // sorted by first_line
    std::vector<std::uint64_t> fetches_by_proc_;
    std::vector<std::uint64_t> misses_by_proc_;
    std::vector<std::uint64_t> accesses_by_set_;
    std::vector<std::uint64_t> misses_by_set_;
    /** (evictor << 32 | victim) -> eviction count, size-capped. */
    std::unordered_map<std::uint64_t, std::uint64_t> pairs_;
    std::uint64_t evictions_ = 0;
    std::uint64_t dropped_pairs_ = 0;
};

} // namespace topo

#endif // TOPO_CACHE_ATTRIBUTION_HH
