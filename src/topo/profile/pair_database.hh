/**
 * @file
 * PairDatabase: the Section 6 temporal-relationship structure D.
 *
 * For set-associative caches a single intervening block no longer
 * guarantees eviction; D(p,{r,s}) records how often the *pair* {r,s}
 * appeared between two consecutive references to p. In a 2-way LRU set
 * that pair is exactly what is needed to displace p.
 *
 * Tractability: the number of pairs between two references grows
 * quadratically with the reuse distance, so each processing step
 * enumerates pairs only among the @c pair_window most recent distinct
 * blocks between the references (default 24). The blocks closest to the
 * new reference are the ones most likely to still be resident, so the
 * cap discards the least informative pairs first. The cap is swept by
 * tests and documented in DESIGN.md.
 *
 * D is built by the TRG walk itself: one serial TrgAccumulator session
 * that counts no graph hands each step's between-list to an observer
 * that records the pairs, so D shares the walk's input checks,
 * popularity filter and run deduplication.
 */

#ifndef TOPO_PROFILE_PAIR_DATABASE_HH
#define TOPO_PROFILE_PAIR_DATABASE_HH

#include <cstdint>
#include <vector>

#include "topo/profile/weighted_graph.hh"
#include "topo/trace/trace.hh"
#include "topo/util/flat_map.hh"

namespace topo
{

/**
 * Frequency table D(p,{r,s}) over block ids (procedure granularity in
 * this implementation; block ids must fit in 21 bits).
 */
class PairDatabase
{
  public:
    PairDatabase() = default;

    /** Add weight to D(p,{r,s}); r and s are unordered, all distinct. */
    void add(BlockId p, BlockId r, BlockId s, double w);

    /** Lookup D(p,{r,s}); 0 when absent. */
    double get(BlockId p, BlockId r, BlockId s) const;

    /** Number of stored (p,{r,s}) entries. */
    std::size_t size() const { return table_.size(); }

    /** Drop entries with weight below @p min_weight. */
    void prune(double min_weight);

    /**
     * Fold another database into this one: weights of shared
     * (p,{r,s}) keys add, unshared keys are inserted. Associative and
     * commutative up to FP addition order; weights are integer counts
     * in practice, so profile-store merges are exact (DESIGN.md §9).
     */
    void merge(const PairDatabase &other);

    /** One stored association. */
    struct Entry
    {
        BlockId p;
        BlockId r;
        BlockId s;
        double weight;
    };

    /**
     * All entries, sorted by (p, r, s) with r < s. The deterministic
     * order lets placement code iterate entries into floating-point
     * cost accumulation without depending on hash layout.
     */
    std::vector<Entry> entries() const;

  private:
    static std::uint64_t key(BlockId p, BlockId r, BlockId s);

    /**
     * Open-addressing table over the 63-bit packed (p, lo, hi) key;
     * the hot add() path is one linear probe. Deletion-free: prune()
     * rebuilds via FlatMap::filter.
     */
    util::FlatMap<std::uint64_t, double> table_;
};

/** Options for building a PairDatabase from a trace. */
struct PairBuildOptions
{
    /** Q byte budget (typically 2x cache size). */
    std::uint64_t byte_budget = 2 * 8 * 1024;
    /** Enumerate pairs among at most this many most-recent blocks. */
    std::uint32_t pair_window = 24;
    /** Optional per-procedure popularity mask. */
    const std::vector<bool> *popular = nullptr;
};

/**
 * Build D over *procedures* from a trace with one serial TRG walk at
 * procedure granularity. Throws TopoError, as buildTrgs does, on a
 * popularity mask that does not cover every procedure or a run outside
 * its procedure.
 */
PairDatabase buildPairDatabase(const Program &program, const Trace &trace,
                               const PairBuildOptions &options);

} // namespace topo

#endif // TOPO_PROFILE_PAIR_DATABASE_HH
