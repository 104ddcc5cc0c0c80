/**
 * @file
 * TimelineRecorder: interval-resolved cache behaviour.
 *
 * Aggregate miss counts hide *when* a layout loses; interval samples
 * (every N fetch blocks: miss rate and working-set size) expose the
 * phase structure that temporal-ordering placement exploits. The
 * simulator feeds a recorder one (procedure, miss?) event per line
 * fetch, or one count of hits for a cache-resident repeat of a run;
 * the recorder buckets them into fixed windows and keeps one
 * sample per window — memory is O(stream / window), independent of
 * the per-window activity.
 *
 * Samples export as Chrome trace counter events (block-index
 * pseudo-time) via exportCounters(), alongside the wall-clock phase
 * spans already in the ChromeTraceLog.
 */

#ifndef TOPO_OBS_TIMELINE_HH
#define TOPO_OBS_TIMELINE_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "topo/obs/epoch_counter.hh"
#include "topo/obs/json.hh"
#include "topo/obs/trace_events.hh"
#include "topo/program/procedure.hh"

namespace topo
{

/** 3C classification of one fetch (Hill's taxonomy, per-miss form). */
enum class MissClass : std::uint8_t
{
    kHit = 0,        ///< Real cache hit (not a miss at all).
    kCompulsory = 1, ///< First reference to the line, ever.
    kCapacity = 2,   ///< Missed in the fully-associative shadow too.
    kConflict = 3,   ///< Shadow hit; only the real geometry missed.
};

/**
 * Log2 reuse-distance buckets: bucket b holds stack distances in
 * [2^(b-1), 2^b) with bucket 0 reserved for distance 0, plus one
 * "cold" bucket for first-touch accesses that have no prior reference.
 */
inline constexpr std::size_t kReuseBucketCount = 34;
inline constexpr std::size_t kReuseColdBucket = kReuseBucketCount - 1;

/** One classified fetch, as produced by the taxonomy sink. */
struct TaxonomyEvent
{
    MissClass miss_class = MissClass::kHit;
    /** Reuse-distance bucket index (< kReuseBucketCount). */
    std::uint8_t reuse_bucket = 0;
};

/** One fixed-size window of simulation activity. */
struct TimelineSample
{
    /** Block index of the window's first fetch. */
    std::uint64_t start = 0;
    std::uint64_t accesses = 0;
    std::uint64_t misses = 0;
    /** Distinct procedures fetched from within the window. */
    std::uint32_t distinct_procs = 0;
    /** 3C miss breakdown (populated only when a taxonomy sink runs). */
    std::uint64_t compulsory = 0;
    std::uint64_t capacity = 0;
    std::uint64_t conflict = 0;
    /** Per-window reuse-distance feature vector (log2 buckets). */
    std::array<std::uint32_t, kReuseBucketCount> reuse_hist{};

    double
    missRate() const
    {
        return accesses ? static_cast<double>(misses) /
                              static_cast<double>(accesses)
                        : 0.0;
    }
};

/** Windowed miss-rate / working-set sampler for one simulation. */
class TimelineRecorder
{
  public:
    /**
     * @param window_blocks Fetch blocks per window (non-zero).
     * @param proc_count    Procedure inventory size (working-set
     *                      tracking).
     */
    TimelineRecorder(std::uint64_t window_blocks, std::size_t proc_count);

    /**
     * Fold one classified fetch into the current window. Must be
     * called *before* record() for the same fetch: record() may close
     * the window. Arms the taxonomy columns in samples and exports.
     */
    void
    noteTaxonomy(const TaxonomyEvent &event)
    {
        saw_taxonomy_ = true;
        switch (event.miss_class) {
        case MissClass::kHit:
            break;
        case MissClass::kCompulsory:
            ++current_.compulsory;
            break;
        case MissClass::kCapacity:
            ++current_.capacity;
            break;
        case MissClass::kConflict:
            ++current_.conflict;
            break;
        }
        ++current_.reuse_hist[event.reuse_bucket];
    }

    /** True once any taxonomy event has been folded in. */
    bool taxonomyArmed() const { return saw_taxonomy_; }

    /** Record one line fetch (hot path). */
    void
    record(ProcId proc, bool miss)
    {
        if (distinct_.touch(proc))
            ++current_.distinct_procs;
        ++current_.accesses;
        current_.misses += miss ? 1 : 0;
        if (current_.accesses == window_blocks_)
            flushWindow();
    }

    /**
     * Record @p count hits by @p proc, as @p count record(proc, false)
     * calls would, each preceded by noteTaxonomy() of a hit in
     * @p reuse_bucket when one is given. The hits are split at window
     * edges, so every window gets the same sample.
     */
    void
    recordHits(ProcId proc, std::uint64_t count,
               std::optional<std::uint8_t> reuse_bucket)
    {
        while (count != 0) {
            const std::uint64_t take =
                std::min(count, window_blocks_ - current_.accesses);
            if (distinct_.touch(proc))
                ++current_.distinct_procs;
            current_.accesses += take;
            if (reuse_bucket) {
                saw_taxonomy_ = true;
                current_.reuse_hist[*reuse_bucket] +=
                    static_cast<std::uint32_t>(take);
            }
            count -= take;
            if (current_.accesses == window_blocks_)
                flushWindow();
        }
    }

    /** Close the trailing partial window (idempotent). */
    void finish();

    /** Blocks per window. */
    std::uint64_t windowBlocks() const { return window_blocks_; }

    /** Completed samples, in stream order (call finish() first). */
    const std::vector<TimelineSample> &samples() const
    {
        return samples_;
    }

    /**
     * Export the samples as counter events ("miss_rate",
     * "working_set_procs") on track @p track of @p log; timestamps are
     * block indices.
     */
    void exportCounters(ChromeTraceLog &log,
                        const std::string &track) const;

    /** {"window_blocks": W, "samples": [{start,accesses,misses,...}]}. */
    JsonValue toJson() const;

  private:
    void flushWindow();

    std::uint64_t window_blocks_;
    std::uint64_t next_start_ = 0;
    TimelineSample current_;
    /** Distinct procedures seen in the current window. */
    EpochCounter distinct_;
    bool saw_taxonomy_ = false;
    std::vector<TimelineSample> samples_;
};

} // namespace topo

#endif // TOPO_OBS_TIMELINE_HH
