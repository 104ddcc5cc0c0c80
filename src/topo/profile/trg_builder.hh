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
 * options and results and the batch and sharded entry points.
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
 * One shard of a trace for parallel profile construction: an event
 * range plus the exact serial walk state at its first event, so a
 * shard-local accumulator seeded with it emits exactly the edges the
 * serial walk emits over [begin, end).
 */
struct TraceShard
{
    /** Event index range [begin, end). */
    std::size_t begin = 0;
    std::size_t end = 0;
    /** Procedure queue contents at `begin`, oldest first. */
    std::vector<BlockId> proc_queue;
    /** Chunk queue contents at `begin`, oldest first. */
    std::vector<BlockId> chunk_queue;
    /** Procedure of the last popular run before `begin`. */
    ProcId last_proc = kInvalidProc;
    /** Last chunk referenced before `begin` (~0u = none). */
    ChunkId last_chunk = static_cast<ChunkId>(~0u);
};

/**
 * Split @p trace into @p shard_count contiguous event ranges and
 * capture the exact queue and run-deduplication state at each shard
 * boundary, warming one TrgAccumulator (TrgAccumulator::warm: queue
 * transitions only, nothing counted) up to the last boundary. Seeding
 * a fresh TrgAccumulator from shard i and replaying its range
 * reproduces the serial walk over that range bit-exactly, so the
 * in-order merge of all shards equals the serial build — including
 * eviction and queue-occupancy statistics.
 */
std::vector<TraceShard>
planTraceShards(const Program &program, const ChunkMap &chunks,
                const Trace &trace, const TrgBuildOptions &options,
                std::size_t shard_count);

/**
 * Build TRG_select and/or TRG_place from a trace.
 *
 * When the execution layer is configured with more than one lane
 * (execJobs() > 1), no per-step observer is installed, and the trace
 * is large enough to amortise the shard plan, the build runs sharded:
 * planTraceShards + one seeded TrgAccumulator per shard on the shared
 * pool, merged in shard order. The result is bit-identical to the
 * serial walk for any jobs value.
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
