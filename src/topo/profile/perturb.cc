#include "topo/profile/perturb.hh"

#include <cmath>

#include "topo/obs/phase_timer.hh"
#include "topo/util/error.hh"

namespace topo
{

WeightedGraph
perturb(const WeightedGraph &graph, double scale, Rng &rng)
{
    require(scale >= 0.0, "perturb: negative scale");
    PhaseTimer timer("perturb");
    WeightedGraph noisy(graph.nodeCount());
    // Noise is drawn in edges() order, which is sorted by (u, v).
    for (const WeightedGraph::Edge &e : graph.edges()) {
        const double factor =
            (scale == 0.0) ? 1.0 : std::exp(scale * rng.nextGaussian());
        noisy.addWeight(e.u, e.v, e.weight * factor);
    }
    return noisy;
}

} // namespace topo
