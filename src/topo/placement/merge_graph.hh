/**
 * @file
 * MergeGraph: the mutable "working graph" shared by the greedy merge
 * loops of PH, HKC-style processing, and GBSC (Sections 2 and 4.1).
 *
 * Nodes start as individual code blocks; the algorithm repeatedly
 * extracts the heaviest edge and merges its endpoints, folding
 * parallel edges by weight addition, until no edges remain. Ties are
 * broken deterministically (smallest node pair) so experiments are
 * reproducible; the paper notes ties are otherwise arbitrary.
 *
 * The heaviest edge comes from a lazy max-heap of (weight, pair)
 * entries: every weight an edge takes is pushed, and entries whose
 * pair died or whose weight moved on are discarded when they surface,
 * so no step rescans the graph.
 */

#ifndef TOPO_PLACEMENT_MERGE_GRAPH_HH
#define TOPO_PLACEMENT_MERGE_GRAPH_HH

#include <memory>
#include <unordered_map>
#include <vector>

#include "topo/profile/weighted_graph.hh"
#include "topo/util/rng.hh"

namespace topo
{

/** Mutable working copy of a relationship graph. */
class MergeGraph
{
  public:
    /** A working edge between two node representatives. */
    struct Edge
    {
        BlockId u = 0;
        BlockId v = 0;
        double weight = 0.0;
        bool valid = false;
    };

    /**
     * Build the working graph.
     *
     * @param base Relationship graph to copy.
     * @param mask Optional node filter: when non-null, only nodes with
     *             mask[id] true participate (edges to masked-out nodes
     *             are dropped).
     */
    explicit MergeGraph(const WeightedGraph &base,
                        const std::vector<bool> *mask = nullptr);

    /** Number of remaining edges. */
    std::size_t edgeCount() const { return edge_count_; }

    /** True when no edges remain (the merge loop's exit condition). */
    bool done() const { return edge_count_ == 0; }

    /**
     * Heaviest remaining edge, with u < v; Edge::valid is false when
     * none remain. Ties: larger weight wins; equal weights pick the
     * smallest (u, v) pair — unless a tie breaker is installed, in
     * which case one uniform draw picks among the max-weight edges,
     * enumerated in (u, v) order so the pick depends on the seed and
     * the graph alone, never on hash layout (the paper's Section 5.1
     * notes such ties are otherwise decided arbitrarily and can change
     * the whole layout). Drops stale heap entries as they surface.
     */
    Edge maxEdge();

    /**
     * Install a seeded random tie breaker for maxEdge. Used by the
     * tie-sensitivity ablation; the default deterministic rule keeps
     * experiments reproducible.
     */
    void setTieBreaker(std::uint64_t seed);

    /**
     * Merge node @p v into node @p u: v's edges are re-pointed at u
     * (parallel edges folded by weight addition), the u-v edge is
     * removed, and v becomes dead. u remains the representative.
     */
    void mergeInto(BlockId u, BlockId v);

    /** True when the node is still a live representative. */
    bool alive(BlockId id) const { return alive_[id]; }

    /** Current weight between two live nodes (0 when no edge). */
    double weightBetween(BlockId u, BlockId v) const;

  private:
    /** A heap entry: edge (u, v), u < v, as it weighed when pushed. */
    struct Entry
    {
        double weight;
        BlockId u;
        BlockId v;
    };

    /** True when @p e is a live edge at its current weight. */
    bool live(const Entry &e) const;

    /** Push the current weight of edge (a, b). */
    void push(BlockId a, BlockId b, double weight);

    /** Remove and return the heap's top entry. */
    Entry pop();

    std::vector<std::unordered_map<BlockId, double>> adjacency_;
    std::vector<bool> alive_;
    std::size_t edge_count_ = 0;
    /** Max-heap on (weight, then smaller (u, v)); may hold stale entries. */
    std::vector<Entry> heap_;
    std::unique_ptr<Rng> tie_rng_;
};

} // namespace topo

#endif // TOPO_PLACEMENT_MERGE_GRAPH_HH
