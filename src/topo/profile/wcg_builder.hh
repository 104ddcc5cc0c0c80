/**
 * @file
 * Weighted call graph construction (Section 2).
 *
 * Following the paper's PH implementation, the edge weight W(p,q) is
 * the total number of control-flow transitions between procedures p
 * and q in the trace — each call/return boundary between consecutive
 * runs of different procedures counts one transition. This is exactly
 * twice a classic WCG's call count, which does not change the
 * placement produced by PH.
 */

#ifndef TOPO_PROFILE_WCG_BUILDER_HH
#define TOPO_PROFILE_WCG_BUILDER_HH

#include <vector>

#include "topo/profile/weighted_graph.hh"
#include "topo/trace/trace.hh"

namespace topo
{

/**
 * Add one to edge {last, proc} of @p wcg for every transition between
 * consecutive events [begin, end) of @p events, the first transition
 * from @p last (the procedure before @p begin, kInvalidProc for none).
 */
void countTransitions(const std::vector<TraceEvent> &events,
                      std::size_t begin, std::size_t end, ProcId last,
                      WeightedGraph &wcg);

/**
 * Build the undirected transition-count graph from a trace.
 *
 * With execJobs() > 1 and a large enough trace the build shards: each
 * shard counts transitions over its event range seeded with the
 * procedure of the event preceding the range, and the per-shard graphs
 * are summed in shard order (WeightedGraph::addGraph — the merge law;
 * weights are integer counts, so the sum is exact and bit-identical
 * to the serial walk).
 *
 * @param program Procedure inventory (node count).
 * @param trace   The profiling trace.
 */
WeightedGraph buildWcg(const Program &program, const Trace &trace);

} // namespace topo

#endif // TOPO_PROFILE_WCG_BUILDER_HH
