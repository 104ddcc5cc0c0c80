/**
 * @file
 * The placement-algorithm interface and trivial baselines.
 *
 * A placement algorithm maps profile information to a Layout. All four
 * algorithms of the paper's evaluation (default order, PH, HKC, GBSC)
 * plus the Section 6 set-associative variant implement this interface;
 * the evaluation harness treats them uniformly.
 */

#ifndef TOPO_PLACEMENT_PLACEMENT_HH
#define TOPO_PLACEMENT_PLACEMENT_HH

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "topo/cache/cache_config.hh"
#include "topo/profile/chunk_map.hh"
#include "topo/profile/pair_database.hh"
#include "topo/profile/trace_profile.hh"
#include "topo/profile/weighted_graph.hh"
#include "topo/program/layout.hh"
#include "topo/program/program.hh"

namespace topo
{

class DecisionLog;

/**
 * Everything a placement algorithm may consume. Algorithms require()
 * the fields they need; unused fields may be left null.
 */
struct PlacementContext
{
    const Program *program = nullptr;
    CacheConfig cache;
    /** Chunking used by TRG_place (GBSC). */
    const ChunkMap *chunks = nullptr;
    /** Call/return transition graph (PH, HKC). */
    const WeightedGraph *wcg = nullptr;
    /** Procedure-granularity TRG (GBSC selection). */
    const WeightedGraph *trg_select = nullptr;
    /** Chunk-granularity TRG (GBSC alignment cost). */
    const WeightedGraph *trg_place = nullptr;
    /** Section 6 pair database (set-associative GBSC). */
    const PairDatabase *pairs = nullptr;
    /** Popularity mask; empty means every procedure is popular. */
    std::vector<bool> popular;
    /** Dynamic bytes fetched per procedure (ordering heuristic). */
    std::vector<double> heat;
    /** Optional decision-provenance sink; null disables recording. */
    DecisionLog *decisions = nullptr;

    /** True when @p proc is popular (or no mask was provided). */
    bool
    isPopular(ProcId proc) const
    {
        return popular.empty() || popular[proc];
    }

    /** Heat of a procedure; 0 when no heat vector was provided. */
    double
    heatOf(ProcId proc) const
    {
        return proc < heat.size() ? heat[proc] : 0.0;
    }

    /**
     * Check the universally required fields. @p who prefixes the
     * failure message, which is built only when a check fails.
     */
    void requireBasics(std::string_view who) const;
};

/** Abstract procedure-placement algorithm. */
class PlacementAlgorithm
{
  public:
    virtual ~PlacementAlgorithm() = default;

    /** Short display name ("PH", "HKC", "GBSC", ...). */
    virtual std::string name() const = 0;

    /** Produce a complete layout for the context's program. */
    virtual Layout place(const PlacementContext &ctx) const = 0;
};

/**
 * The compiler's default layout: source order, no gaps (Section 1).
 */
class DefaultPlacement : public PlacementAlgorithm
{
  public:
    std::string name() const override { return "default"; }
    Layout place(const PlacementContext &ctx) const override;
};

/**
 * Order procedure ids by descending heat (then ascending id). Shared
 * by several algorithms for placing leftover procedures.
 */
std::vector<ProcId> procsByHeat(const PlacementContext &ctx);

/**
 * The colour-collision kernel behind every placement offset sweep:
 * GBSC's Figure 4 alignment, the set-associative merge, refinement and
 * HKC's colouring. Block p holds @p p_len consecutive colours from
 * @p p_start; block q holds @p q_len from @p q_off, in a layout that
 * would be shifted by s. Line lp of p and line lq of q collide when
 * p_start + lp == s + q_off + lq modulo C = cost.size(); add @p weight
 * to cost[s] once per colliding pair.
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

/**
 * The line-bucket walk behind both whole-layout conflict metrics: the
 * lines of every procedure that @p include admits (all when null) are
 * bucketed by cache line, line l of p at (offsets[p] + l) mod
 * lineCount(), and @p graph's weight is summed over each pair of
 * distinct blocks sharing a bucket, buckets in line order and pairs in
 * insertion order. A block is the chunk of @p chunks holding the line,
 * or the procedure itself when @p chunks is null.
 */
double sharedLineWeight(const Program &program, const CacheConfig &cache,
                        const WeightedGraph &graph, const ChunkMap *chunks,
                        const std::vector<std::uint32_t> &offsets,
                        const std::vector<bool> *include);

/**
 * The one assembly of a context from a profile: its graphs and pairs,
 * @p popular as the mask, heat = bytes fetched per procedure.
 */
PlacementContext profileContext(const Program &program,
                                const CacheConfig &cache,
                                const ChunkMap &chunks,
                                const TraceProfile &profile,
                                std::vector<bool> popular);

} // namespace topo

#endif // TOPO_PLACEMENT_PLACEMENT_HH
