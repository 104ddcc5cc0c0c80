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

#include <cstdint>
#include <vector>

#include "topo/placement/placement.hh"

namespace topo
{

/**
 * HKC's colour-collision kernel, shared by attaching a procedure and
 * merging two units. Procedure p holds @p p_len lines from
 * unit-relative line @p p_start; procedure q holds @p q_len lines from
 * line @p q_off of a unit that would start at colour s. Line lp of p
 * and line lq of q collide when p_start + lp == s + q_off + lq modulo
 * C = cost.size(); add @p weight to cost[s] once per colliding pair.
 *
 * For a fixed lp the colours q hits form one circular run, so each
 * line of p costs ⌊q_len / C⌋ full sweeps plus one or two contiguous
 * range adds: no division, and the loops vectorise. Every cost[s]
 * receives exactly the +weight terms of a per-pair walk, and they are
 * all the same value, so the sums are bit-identical to it.
 */
void accumulateColorCollisions(std::vector<double> &cost,
                               std::uint64_t p_start, std::uint64_t p_len,
                               std::uint64_t q_off, std::uint64_t q_len,
                               double weight);

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
