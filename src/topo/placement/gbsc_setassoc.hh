/**
 * @file
 * GBSC extension for set-associative caches (Section 6).
 *
 * In a 2-way LRU set one intervening block cannot evict p; two can.
 * The merge cost therefore consults the pair database D(p,{r,s}): an
 * alignment is charged D(p,{r,s}) whenever it maps p, r and s to the
 * same set. Every triple split across the two nodes is charged,
 * whichever of its blocks sit together: the two blocks on one side
 * must share a set, and the alignment must bring the lone block to
 * it. That covers the paper's "a code block in n1 against all pairs
 * of code blocks in n2 and vice-versa" and also the triples in which
 * the victim shares its node with one of the displacing blocks.
 * Triples within one node cost the same at every alignment and are
 * skipped. Selection and final-list emission are inherited from Gbsc.
 *
 * Implementation notes (documented substitutions, see DESIGN.md): the
 * database is built at procedure granularity with a bounded pair
 * window. A procedure covers one circular run of sets (all of them
 * once it is as long as the cache has sets), two runs share at most
 * two runs, and each is priced by accumulateColorCollisions.
 */

#ifndef TOPO_PLACEMENT_GBSC_SETASSOC_HH
#define TOPO_PLACEMENT_GBSC_SETASSOC_HH

#include "topo/placement/gbsc.hh"

namespace topo
{

/** Set-associative GBSC (Section 6); requires ctx.pairs. */
class GbscSetAssoc : public Gbsc
{
  public:
    using Gbsc::Gbsc;

    std::string name() const override { return "GBSC-SA"; }

  protected:
    void validateInputs(const PlacementContext &ctx) const override;
    GbscNode doMerge(const PlacementContext &ctx, const GbscNode &n1,
                     const GbscNode &n2) const override;

    std::uint32_t offsetCount(const CacheConfig &cache) const override
    {
        return cache.setCount();
    }
};

} // namespace topo

#endif // TOPO_PLACEMENT_GBSC_SETASSOC_HH
