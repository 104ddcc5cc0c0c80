/**
 * @file
 * Sampled profile construction over a SamplePlan (DESIGN.md §15).
 *
 * The placement pipeline's profile artifacts — the weighted call graph
 * and both Temporal Relationship Graphs — are linear in the trace:
 * every edge weight is a sum of per-event contributions. They
 * therefore sample exactly like miss counts do. Each plan segment
 * warms its own TrgAccumulator through its warm-up prefix
 * (TrgAccumulator::warm: queue state only, nothing counted), then
 * feeds it the measured range, and the per-segment graphs merge with
 * the segment's cluster weight (WeightedGraph::addGraph). The WCG
 * transitions (countTransitions) start from the procedure of the event
 * just before the measured range, matching the sharded exact builder.
 *
 * Segments run concurrently; all folds are serial in segment order, so
 * the result is bit-identical for any --jobs value. The degenerate
 * single-segment whole-trace plan (scale 1.0, no warm-up) reproduces
 * the exact profile bit-for-bit.
 *
 * buildTraceProfile is the one trace -> TraceProfile builder, exact or
 * sampled: buildProfile and the profile store's shards both use it.
 */

#ifndef TOPO_SAMPLING_SAMPLED_PROFILE_HH
#define TOPO_SAMPLING_SAMPLED_PROFILE_HH

#include <cstdint>

#include "topo/profile/chunk_map.hh"
#include "topo/profile/trace_profile.hh"
#include "topo/sampling/sample_plan.hh"

namespace topo
{

/** Weighted-estimate analogue of (buildWcg, buildTrgs) output. */
struct SampledProfileResult
{
    /** Estimated weighted call graph (procedure transitions). */
    WeightedGraph wcg;
    /** Estimated TRG_select (empty graph if not requested). */
    WeightedGraph trg_select;
    /** Estimated TRG_place (empty graph if not requested). */
    WeightedGraph trg_place;
    /** Weighted average procedures resident in Q per step. */
    double avg_queue_procs = 0.0;
    /** Estimated procedure-granularity steps (rounded). */
    std::uint64_t proc_steps = 0;
    /** Estimated Q evictions, procedure granularity (rounded). */
    std::uint64_t proc_evictions = 0;
    /** Estimated Q evictions, chunk granularity (rounded). */
    std::uint64_t chunk_evictions = 0;
};

/**
 * Build the WCG and TRGs from the plan's representative segments only,
 * weighting each segment's edges by its cluster scale. @p options must
 * not carry a per-step observer (observers see every step in order,
 * which sampling by construction does not provide).
 */
SampledProfileResult buildSampledProfile(const Program &program,
                                         const ChunkMap &chunks,
                                         const Trace &trace,
                                         const SamplePlan &plan,
                                         const TrgBuildOptions &options);

/**
 * Profile @p trace: the WCG and TRGs from exact walks, or weighted
 * estimates over a sample plan (at @p line_bytes) when @p sampling is
 * active; the pair database (exact only) when @p pairs is set. @p stats
 * are computeTraceStats(trace), which the masks may derive from; null
 * masks in @p trg and @p pairs profile every procedure.
 */
TraceProfile buildTraceProfile(const Program &program,
                               const ChunkMap &chunks, const Trace &trace,
                               TraceStats stats, const TrgBuildOptions &trg,
                               const PairBuildOptions *pairs,
                               const SamplingOptions &sampling,
                               std::uint32_t line_bytes);

} // namespace topo

#endif // TOPO_SAMPLING_SAMPLED_PROFILE_HH
