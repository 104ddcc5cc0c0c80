/**
 * @file
 * TraceProfile: what one trace contributes to a placement profile.
 * buildProfile's training profile, the persistent store's shards and
 * standing profile (DESIGN.md §12), and ProfileCollector's sessions are
 * all this type; profiles of several traces add up with merge().
 */

#ifndef TOPO_PROFILE_TRACE_PROFILE_HH
#define TOPO_PROFILE_TRACE_PROFILE_HH

#include <cstdint>

#include "topo/profile/pair_database.hh"
#include "topo/profile/trg_builder.hh"
#include "topo/profile/weighted_graph.hh"
#include "topo/trace/trace_stats.hh"

namespace topo
{

/** Statistics, graphs and Q counters of one or more traces. */
struct TraceProfile
{
    /** Dynamic statistics (popularity, heat). */
    TraceStats stats{};
    WeightedGraph wcg{};
    WeightedGraph trg_select{};
    WeightedGraph trg_place{};
    /** Section 6 pair database; empty unless it was requested. */
    PairDatabase pairs{};
    /** Procedures resident in Q, summed over the TRG walk's steps. */
    double queue_procs_sum = 0.0;
    std::uint64_t proc_steps = 0;
    std::uint64_t proc_evictions = 0;
    std::uint64_t chunk_evictions = 0;

    /** Average procedures resident in Q per step (Table 1). */
    double
    avgQueueProcs() const
    {
        return proc_steps ? queue_procs_sum / static_cast<double>(proc_steps)
                          : 0.0;
    }

    /** Adopt an exact TRG walk's graphs and Q counters. */
    void setTrgs(TrgBuildResult trgs);

    /**
     * Add @p other (a profile of the same program): statistics, graph
     * weights, pairs and Q counters. Bit-deterministic for a fixed
     * merge order.
     */
    void merge(const TraceProfile &other);
};

} // namespace topo

#endif // TOPO_PROFILE_TRACE_PROFILE_HH
