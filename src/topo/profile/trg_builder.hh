/**
 * @file
 * Construction of Temporal Relationship Graphs (Sections 3 and 4.1).
 *
 * A single pass over the trace drives two TemporalQueues — one at
 * procedure granularity producing TRG_select, one at chunk granularity
 * producing TRG_place — exactly as the paper's "straightforward to
 * generate both TRGs simultaneously" remark describes. Edge weights
 * count how often block q was referenced between two consecutive
 * references to block p while p was still resident in Q.
 *
 * The walk itself is TrgAccumulator's (trg_accumulator.hh), the one
 * implementation every profile path shares; this header holds its
 * options and results and the batch entry point.
 */

#ifndef TOPO_PROFILE_TRG_BUILDER_HH
#define TOPO_PROFILE_TRG_BUILDER_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "topo/profile/chunk_map.hh"
#include "topo/profile/temporal_queue.hh"
#include "topo/profile/weighted_graph.hh"
#include "topo/trace/trace.hh"

namespace topo
{

/** Options controlling a TRG build. */
struct TrgBuildOptions
{
    /**
     * Byte budget of Q. The paper found twice the cache size to work
     * well; callers typically pass 2 * cache.size_bytes.
     */
    std::uint64_t byte_budget = 2 * 8 * 1024;

    /** Build the procedure-granularity TRG_select. */
    bool build_select = true;

    /** Build the chunk-granularity TRG_place. */
    bool build_place = true;

    /**
     * Optional popularity mask (per procedure). When set, references
     * to unpopular procedures are ignored entirely, as in Section 4's
     * adoption of Hashemi et al.'s popular-procedure restriction.
     */
    const std::vector<bool> *popular = nullptr;

    /**
     * Optional per-step observer over the procedure-granularity queue,
     * used by the Figure 3 walkthrough. Called after each reference is
     * processed with: the referenced procedure, whether a previous
     * reference existed, the blocks found between the two references,
     * and the queue itself.
     */
    std::function<void(ProcId, bool, const std::vector<BlockId> &,
                       const TemporalQueue &)>
        observer;
};

/** Result of a TRG build. */
struct TrgBuildResult
{
    /** Procedure-granularity TRG (empty graph if not requested). */
    WeightedGraph select;
    /** Chunk-granularity TRG (empty graph if not requested). */
    WeightedGraph place;
    /** Average number of procedures resident in Q per step (Table 1). */
    double avg_queue_procs = 0.0;
    /** Number of procedure-granularity processing steps. */
    std::uint64_t proc_steps = 0;
    /** Budget evictions from the procedure-granularity Q. */
    std::uint64_t proc_evictions = 0;
    /** Budget evictions from the chunk-granularity Q. */
    std::uint64_t chunk_evictions = 0;
};

/**
 * Build TRG_select and/or TRG_place from a trace: one TrgAccumulator
 * session over every event, serial for any execJobs() value.
 *
 * @param program Procedure inventory.
 * @param chunks  Chunking of the program (for TRG_place).
 * @param trace   The profiling trace.
 * @param options Build options.
 */
TrgBuildResult buildTrgs(const Program &program, const ChunkMap &chunks,
                         const Trace &trace, const TrgBuildOptions &options);

} // namespace topo

#endif // TOPO_PROFILE_TRG_BUILDER_HH
