#include "topo/placement/merge_graph.hh"

#include <algorithm>

#include "topo/util/error.hh"

namespace topo
{

namespace
{

/** Heap order: the top entry has the larger weight, then the smaller
 *  (u, v) pair — maxEdge's deterministic rule. */
constexpr auto kBelow = [](const auto &x, const auto &y) {
    if (x.weight != y.weight)
        return x.weight < y.weight;
    if (x.u != y.u)
        return x.u > y.u;
    return x.v > y.v;
};

} // namespace

MergeGraph::MergeGraph(const WeightedGraph &base,
                       const std::vector<bool> *mask)
    : adjacency_(base.nodeCount()), alive_(base.nodeCount(), true)
{
    if (mask) {
        require(mask->size() == base.nodeCount(),
                "MergeGraph: mask size mismatch");
    }
    for (const WeightedGraph::Edge &e : base.edges()) {
        if (mask && (!(*mask)[e.u] || !(*mask)[e.v]))
            continue;
        adjacency_[e.u][e.v] = e.weight;
        adjacency_[e.v][e.u] = e.weight;
        heap_.push_back(Entry{e.weight, e.u, e.v}); // edges() has u < v
        ++edge_count_;
    }
    std::make_heap(heap_.begin(), heap_.end(), kBelow);
    if (mask) {
        for (std::size_t i = 0; i < alive_.size(); ++i)
            alive_[i] = (*mask)[i];
    }
}

bool
MergeGraph::live(const Entry &e) const
{
    if (!alive_[e.u] || !alive_[e.v])
        return false;
    const auto it = adjacency_[e.u].find(e.v);
    return it != adjacency_[e.u].end() && it->second == e.weight;
}

void
MergeGraph::push(BlockId a, BlockId b, double weight)
{
    heap_.push_back(Entry{weight, std::min(a, b), std::max(a, b)});
    std::push_heap(heap_.begin(), heap_.end(), kBelow);
}

MergeGraph::Entry
MergeGraph::pop()
{
    std::pop_heap(heap_.begin(), heap_.end(), kBelow);
    const Entry top = heap_.back();
    heap_.pop_back();
    return top;
}

MergeGraph::Edge
MergeGraph::maxEdge()
{
    while (!heap_.empty() && !live(heap_.front()))
        pop();
    if (heap_.empty())
        return Edge{};
    Entry best = heap_.front();
    if (tie_rng_) {
        // Take the live max-weight entries off the heap, in (u, v)
        // order, dropping stale ones and the repeat an unchanged fold
        // pushes; draw one; put them all back.
        std::vector<Entry> ties;
        while (!heap_.empty() && heap_.front().weight == best.weight) {
            const Entry e = pop();
            if (live(e) && (ties.empty() || e.u != ties.back().u ||
                            e.v != ties.back().v))
                ties.push_back(e);
        }
        best = ties[tie_rng_->nextBelow(ties.size())];
        for (const Entry &e : ties)
            push(e.u, e.v, e.weight);
    }
    return Edge{best.u, best.v, best.weight, true};
}

void
MergeGraph::setTieBreaker(std::uint64_t seed)
{
    tie_rng_ = std::make_unique<Rng>(seed);
}

void
MergeGraph::mergeInto(BlockId u, BlockId v)
{
    require(u < adjacency_.size() && v < adjacency_.size(),
            "MergeGraph::mergeInto: node out of range");
    require(u != v, "MergeGraph::mergeInto: cannot merge a node into "
                    "itself");
    require(alive_[u] && alive_[v], "MergeGraph::mergeInto: dead node");

    // Remove the direct edge if present.
    auto direct = adjacency_[u].find(v);
    if (direct != adjacency_[u].end()) {
        adjacency_[u].erase(direct);
        adjacency_[v].erase(u);
        --edge_count_;
    }
    // Fold v's remaining edges into u.
    for (const auto &[r, w] : adjacency_[v]) {
        auto [it, inserted] = adjacency_[u].try_emplace(r, 0.0);
        it->second += w;
        adjacency_[r].erase(v);
        adjacency_[r][u] = it->second;
        push(u, r, it->second);
        if (!inserted)
            --edge_count_; // parallel edge folded
    }
    adjacency_[v].clear();
    alive_[v] = false;
}

double
MergeGraph::weightBetween(BlockId u, BlockId v) const
{
    require(u < adjacency_.size() && v < adjacency_.size(),
            "MergeGraph::weightBetween: node out of range");
    auto it = adjacency_[u].find(v);
    return it == adjacency_[u].end() ? 0.0 : it->second;
}

} // namespace topo
