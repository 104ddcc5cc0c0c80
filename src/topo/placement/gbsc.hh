/**
 * @file
 * GBSC: the paper's temporal-ordering procedure-placement algorithm
 * (Section 4).
 *
 * Selection: greedy heaviest-edge merging over TRG_select restricted
 * to popular procedures, exactly as PH processes its working graph.
 * Placement: instead of chains, a node is a set of (procedure,
 * cache-line offset) tuples; merge_nodes (Figure 4) scans all relative
 * cache alignments of the two nodes and keeps the one minimising the
 * TRG_place conflict metric between procedure chunks. The final linear
 * list (Section 4.3) orders procedures by the smallest-positive-gap
 * rule and fills gaps with unpopular procedures.
 *
 * Implementation note: merge_nodes accumulates the Figure 4 cost array
 * sparsely — iterating TRG_place edges that cross the two nodes and
 * crediting each edge to every relative offset at which the two chunks
 * would share a cache line — which is bit-identical to the quadratic
 * scan of the pseudo-code but far cheaper. Ties select the smallest
 * offset, preserving the paper's "first zero-cost line after p"
 * PH-equivalence in the small case.
 *
 * Each node's chunks are flat spans (chunk, colour of its first line,
 * line count), sorted by chunk id and derived arithmetically from each
 * procedure's chunk range; a line belongs to the chunk holding its
 * first byte. A crossing edge's partner span is found by binary
 * search, and the edge's weight is added by the shared colour kernel,
 * accumulateColorCollisions, in one call per edge. The calls keep one
 * fixed order: the smaller node's chunks by id, then their TRG_place
 * neighbours by id. Floating-point sums depend on order, and one call
 * adds only equal terms, so this rule keeps the cost array
 * bit-identical for perturbed (non-integral) weights as well as for
 * integer counts.
 */

#ifndef TOPO_PLACEMENT_GBSC_HH
#define TOPO_PLACEMENT_GBSC_HH

#include "topo/placement/placement.hh"

namespace topo
{

/** A GBSC working node: procedures with cache-relative line offsets. */
struct GbscNode
{
    std::vector<std::pair<ProcId, std::uint32_t>> procs;
};

/** GBSC placement (direct-mapped caches). */
class Gbsc : public PlacementAlgorithm
{
  public:
    Gbsc() = default;

    /**
     * Construct with a random tie breaker for equal-weight working
     * edges (Section 5.1 sensitivity experiments). The default breaks
     * ties deterministically.
     */
    explicit Gbsc(std::uint64_t tie_seed)
        : tie_seed_(tie_seed), has_tie_seed_(true)
    {}

    std::string name() const override { return "GBSC"; }

    /**
     * Place using ctx.trg_select, ctx.trg_place, ctx.chunks, ctx.cache
     * and ctx.popular. All of those are required (popularity may be
     * empty, meaning every procedure is popular).
     */
    Layout place(const PlacementContext &ctx) const override;

    /**
     * The Figure 4 routine, exposed for tests and the set-associative
     * subclass: choose the best relative offset of @p n2 against
     * @p n1 under the TRG_place metric and return the merged node.
     *
     * @param ctx Context carrying cache geometry, chunks, trg_place.
     * @param n1  First node (layout fixed).
     * @param n2  Second node (offsets shifted by the chosen amount).
     * @param out_best_metric Optional: receives the winning cost.
     */
    static GbscNode mergeNodes(const PlacementContext &ctx,
                               const GbscNode &n1, const GbscNode &n2,
                               double *out_best_metric = nullptr);

    /**
     * The Figure 4 cost array, computed sparsely: entry i is the sum
     * of TRG_place weights over chunk pairs (one chunk per node) that
     * would share a cache frame when n2 is shifted by i lines, with
     * frame collisions evaluated modulo @p modulus. mergeNodes uses
     * modulus == lineCount(); the set-associative variant reuses the
     * same array at modulus == setCount(). @p modulus must divide
     * lineCount().
     */
    static std::vector<double> alignmentCost(const PlacementContext &ctx,
                                             const GbscNode &n1,
                                             const GbscNode &n2,
                                             std::uint32_t modulus);

    /**
     * Whole placement conflict metric of a set of cache-relative
     * offsets: the sum, over every cache line, of TRG_place weights
     * between chunk pairs mapped to that line. This is the quantity
     * Figure 6 correlates against real miss counts.
     */
    static double conflictMetric(const PlacementContext &ctx,
                                 const std::vector<std::uint32_t> &offsets,
                                 const std::vector<bool> *include = nullptr);

  protected:
    /** Validate the inputs this variant needs (called by place()). */
    virtual void validateInputs(const PlacementContext &ctx) const;

    /** Merge hook; the set-associative variant overrides the cost. */
    virtual GbscNode doMerge(const PlacementContext &ctx,
                             const GbscNode &n1, const GbscNode &n2) const;

    /** Relative offsets one doMerge scans: its cost array's size. */
    virtual std::uint32_t offsetCount(const CacheConfig &cache) const
    {
        return cache.lineCount();
    }

  private:
    std::uint64_t tie_seed_ = 0;
    bool has_tie_seed_ = false;
};

} // namespace topo

#endif // TOPO_PLACEMENT_GBSC_HH
