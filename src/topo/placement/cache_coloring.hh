/**
 * @file
 * HKC: procedure mapping by cache line coloring (Hashemi, Kaeli, and
 * Calder, PLDI'97), as characterised in Section 5 of the paper.
 *
 * Like PH, HKC processes weighted-call-graph edges in decreasing
 * weight order; unlike PH it knows the cache geometry. Every placed
 * procedure owns a set of cache lines ("colours"); when a procedure is
 * added next to its call-graph neighbours, the alignment chosen is the
 * one that minimises weighted colour conflicts with those neighbours,
 * and previously placed compounds may shift relative to each other as
 * long as the shift does not introduce conflicts with heavier, earlier
 * decisions. Only popular procedures are coloured; unpopular ones fill
 * the remaining space.
 */

#ifndef TOPO_PLACEMENT_CACHE_COLORING_HH
#define TOPO_PLACEMENT_CACHE_COLORING_HH

#include "topo/placement/placement.hh"

namespace topo
{

/** HKC cache-line-coloring placement driven by the context's WCG. */
class CacheColoring : public PlacementAlgorithm
{
  public:
    std::string name() const override { return "HKC"; }

    /**
     * Place using ctx.wcg, ctx.cache and ctx.popular. Requires program
     * and wcg; when no popularity mask is present every procedure is
     * treated as popular.
     */
    Layout place(const PlacementContext &ctx) const override;
};

} // namespace topo

#endif // TOPO_PLACEMENT_CACHE_COLORING_HH
