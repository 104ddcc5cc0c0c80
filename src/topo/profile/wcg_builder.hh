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
 *
 * countTransition() is the one definition of that rule: buildWcg, the
 * sampled profile's segments and ProfileCollector all apply it one
 * run at a time.
 */

#ifndef TOPO_PROFILE_WCG_BUILDER_HH
#define TOPO_PROFILE_WCG_BUILDER_HH

#include "topo/profile/weighted_graph.hh"
#include "topo/trace/trace.hh"

namespace topo
{

/**
 * The WCG transition rule for one run of @p proc: add one to edge
 * {last, proc} of @p wcg when @p last, the procedure of the run
 * before (kInvalidProc for none), differs from @p proc. @p last
 * becomes @p proc.
 */
inline void
countTransition(ProcId &last, ProcId proc, WeightedGraph &wcg)
{
    if (last != kInvalidProc && proc != last)
        wcg.addWeight(last, proc, 1.0);
    last = proc;
}

/**
 * Build the undirected transition-count graph from a trace: one
 * serial walk at every execJobs() value.
 *
 * @param program Procedure inventory (node count).
 * @param trace   The profiling trace.
 */
WeightedGraph buildWcg(const Program &program, const Trace &trace);

} // namespace topo

#endif // TOPO_PROFILE_WCG_BUILDER_HH
