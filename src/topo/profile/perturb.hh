/**
 * @file
 * Profile-data perturbation (Section 5.1).
 *
 * To simulate the effect of many slightly different inputs, each edge
 * weight w of a relationship graph is replaced by w * exp(s * X) with
 * X ~ N(0,1). Multiplicative noise keeps weights positive and makes
 * reasonable values of s independent of the weight scale. The paper
 * uses s = 0.1 for its 40-run distributions.
 */

#ifndef TOPO_PROFILE_PERTURB_HH
#define TOPO_PROFILE_PERTURB_HH

#include "topo/profile/weighted_graph.hh"
#include "topo/util/rng.hh"

namespace topo
{

/** The paper's perturbation scale for the Figure 5 experiments. */
inline constexpr double kPaperPerturbScale = 0.1;

/**
 * Return a copy of @p graph with every edge weight multiplied by
 * exp(scale * N(0,1)). Timed as the "perturb" span.
 *
 * @param graph Relationship graph (WCG or TRG).
 * @param scale The s parameter; 0 returns an exact copy.
 * @param rng   Random stream (consumed).
 */
WeightedGraph perturb(const WeightedGraph &graph, double scale, Rng &rng);

} // namespace topo

#endif // TOPO_PROFILE_PERTURB_HH
