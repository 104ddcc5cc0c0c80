/**
 * @file
 * ProfileStore: the crash-consistent persistent profile database
 * (DESIGN.md §12).
 *
 * A store is a directory:
 *
 *   store.meta        immutable identity + configuration ("TOPM")
 *   snapshot-0.tps    dual-slot profile snapshots ("TOPS"); slot is
 *   snapshot-1.tps    generation % 2, the two newest generations kept
 *   journal.tpj       append-only write-ahead journal ("TOPJ")
 *
 * Write-ahead discipline: every mutation (shard ingest, accepted
 * placement) is serialized as one CRC-framed journal record, appended,
 * fsynced, and only then applied to the in-memory profile. Open
 * replays the journal on top of the newest valid snapshot; a torn or
 * corrupt record ends the valid prefix — torn writes never poison the
 * store, they only lose the uncommitted suffix. When the newest
 * snapshot fails its CRC the previous generation is salvaged, and
 * because compaction keeps every journal record newer than that older
 * generation's applied sequence, salvage + replay is lossless.
 *
 * Incremental re-placement: the store remembers TRG_select as it was
 * at the last accepted placement (the drift baseline). place() only
 * recomputes the layout when the L1 edge-weight delta ratio against
 * the baseline exceeds a threshold (or when forced / never placed).
 *
 * Determinism: deltas are serialized bit-exactly (IEEE-754 bit
 * patterns) and applied in journal order on both the ingest path and
 * the replay path, so a reopened store's profile equals the in-memory
 * fold of the same shards to the last bit.
 */

#ifndef TOPO_STORE_PROFILE_STORE_HH
#define TOPO_STORE_PROFILE_STORE_HH

#include <cstdint>
#include <string>

#include "topo/program/layout.hh"
#include "topo/sampling/sample_plan.hh"
#include "topo/store/store_codec.hh"
#include "topo/trace/trace.hh"

namespace topo
{

class DecisionLog;

/** What open() had to do to bring the store up. */
struct StoreOpenStats
{
    /** Snapshot generation the profile was loaded from. */
    std::uint64_t snapshot_generation = 0;
    /** True when the newest snapshot was unusable and an older one
     * was used instead. */
    bool salvaged = false;
    /** Journal records replayed on top of the snapshot. */
    std::uint64_t replayed_records = 0;
    /** Journal bytes discarded after the valid prefix. */
    std::uint64_t dropped_bytes = 0;
    /** Torn/corrupt journal records discarded. */
    std::uint64_t dropped_records = 0;
};

/** Outcome of ProfileStore::place(). */
struct StorePlaceResult
{
    /** TRG drift against the baseline (infinity when never placed). */
    double drift = 0.0;
    /** True when a new layout was computed and journaled. */
    bool placed = false;
    /** The store's current layout (new or retained). */
    Layout layout;
    /** Algorithm of the current layout. */
    std::string algorithm;
};

/** The layout of stored addresses (empty when never placed). */
Layout layoutFromAddresses(const std::vector<std::uint64_t> &addresses);

/** An empty profile sized for @p config (all-zero statistics). */
StoredProfile emptyProfile(const StoreConfig &config);

/**
 * Profile one trace into a mergeable delta with buildTraceProfile (as
 * buildProfile does) and a null popularity mask: TRGs unmasked, pairs
 * unpruned. The popular set depends on every shard merged so far, so
 * placeProfile selects it from the merged statistics — the one
 * semantic difference from the single-shot topo_place pipeline. With
 * an active @p sampling the graphs are weighted estimates; the
 * statistics stay exact.
 */
ShardDelta buildShardDelta(const StoreConfig &config,
                           const std::string &label, const Trace &trace,
                           const SamplingOptions &sampling);

/** Fold a delta into a profile (TraceProfile::merge) and list it. */
void applyShardDelta(StoredProfile &profile, const ShardDelta &delta);

/**
 * L1 edge-weight delta ratio between two TRGs:
 * sum(|cur(e) - base(e)|) over the edge union, divided by the total
 * baseline weight. Infinity when the baseline is empty but the
 * current graph is not; 0 when both are empty.
 */
double trgDrift(const WeightedGraph &cur, const WeightedGraph &base);

/**
 * Compute a placement from a (merged) profile: popularity from the
 * merged statistics, then the named algorithm (gbsc | ph | hkc |
 * default). Pure — shared by ProfileStore::place() and the tests'
 * reopened-vs-fresh equality check.
 */
StorePlaceResult placeProfile(const StoreConfig &config,
                              const StoredProfile &profile,
                              const std::string &algorithm,
                              DecisionLog *decisions = nullptr);

/** The journaled on-disk profile store. */
class ProfileStore
{
  public:
    /**
     * Create a store directory (mkdir if absent): snapshot
     * generation 0 of an empty profile, an empty journal, and the
     * meta file (written last — its presence marks a complete init).
     * Fails if the directory already holds a store.
     */
    static void init(const std::string &dir, const StoreConfig &config);

    /**
     * Open a store: load the newest valid snapshot (salvaging the
     * older generation when the newest is torn or corrupt), then
     * replay the journal's valid prefix. Throws a corrupt-input
     * TopoError only when no snapshot generation is usable or the
     * artefacts disagree on the store id.
     */
    static ProfileStore open(const std::string &dir);

    /** Immutable configuration fixed at init. */
    const StoreConfig &config() const { return config_; }
    /** The standing merged profile. */
    const StoredProfile &profile() const { return profile_; }
    /** What open() did. */
    const StoreOpenStats &openStats() const { return open_stats_; }
    /** Store directory. */
    const std::string &dir() const { return dir_; }
    /** Newest valid snapshot generation. */
    std::uint64_t generation() const { return generation_; }
    /** Sequence number of the last applied journal record. */
    std::uint64_t appliedSeq() const { return applied_seq_; }
    /** Current TRG drift against the placement baseline. */
    double drift() const;

    /**
     * Ingest one shard: journal the delta (append + fsync), then fold
     * it into the profile. On any failure mid-append the on-disk
     * journal at worst carries a torn tail that the next open drops.
     */
    void ingest(const ShardDelta &delta);

    /**
     * Incremental re-placement. Computes the drift of the current
     * TRG_select against the baseline captured at the last accepted
     * placement; when drift >= @p threshold (or @p force, or no
     * placement exists yet) a new layout is computed with
     * @p algorithm, journaled as a kPlace record, and adopted as the
     * new baseline. Otherwise the stored layout is returned.
     */
    StorePlaceResult place(const std::string &algorithm,
                           double threshold, bool force = false,
                           DecisionLog *decisions = nullptr);

    /**
     * Checkpoint: write the profile as snapshot generation + 1
     * (atomically, into the alternate slot), then rewrite the journal
     * keeping only records newer than the OLDER retained snapshot —
     * so falling back one generation on a future salvage loses
     * nothing. Both steps are individually atomic; a crash between
     * them leaves a store that opens to the same logical state.
     */
    void compact();

  private:
    ProfileStore() = default;

    void appendRecord(StoreRecordKind kind, const std::string &body);
    void applyPlace(const std::vector<std::uint64_t> &addresses,
                    const std::string &algorithm);
    std::string snapshotPath(std::uint64_t generation) const;
    std::string journalPath() const;
    std::string metaPath() const;
    void writeSnapshot(std::uint64_t generation);

    std::string dir_;
    std::uint64_t store_id_ = 0;
    StoreConfig config_;
    StoredProfile profile_;
    StoreOpenStats open_stats_;
    /** Newest valid snapshot generation. */
    std::uint64_t generation_ = 0;
    /** applied_seq recorded in that snapshot. */
    std::uint64_t snapshot_applied_seq_ = 0;
    /** applied_seq of the older retained snapshot (journal floor). */
    std::uint64_t older_applied_seq_ = 0;
    /** Last journal sequence applied to profile_. */
    std::uint64_t applied_seq_ = 0;
};

} // namespace topo

#endif // TOPO_STORE_PROFILE_STORE_HH
