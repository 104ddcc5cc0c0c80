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

#include <memory>
#include <string>
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

    /** Check the universally required fields. */
    void requireBasics(const std::string &who) const;
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
 * Uniform-random procedure order; a control baseline for experiments
 * (not part of the paper's comparison, useful for sanity checks).
 */
class RandomPlacement : public PlacementAlgorithm
{
  public:
    explicit RandomPlacement(std::uint64_t seed) : seed_(seed) {}
    std::string name() const override { return "random"; }
    Layout place(const PlacementContext &ctx) const override;

  private:
    std::uint64_t seed_;
};

/**
 * Order procedure ids by descending heat (then ascending id). Shared
 * by several algorithms for placing leftover procedures.
 */
std::vector<ProcId> procsByHeat(const PlacementContext &ctx);

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
