/**
 * @file
 * TaxonomySink: 3C miss classification + reuse-distance profiling for
 * the cache simulator.
 *
 * The paper's claim is that temporal-ordering placement removes
 * *conflict* misses specifically, so the observatory must say which
 * kind of miss each layout removes. The sink maintains a shadow
 * fully-associative LRU model of the same capacity as the real cache
 * and classifies every real-cache miss (Hill's taxonomy, per-miss
 * form):
 *
 *  - compulsory: first reference to the line, ever;
 *  - capacity:   the FA shadow missed too (stack distance >= C), so
 *                no placement at this capacity could have hit;
 *  - conflict:   the shadow hit but the real geometry missed — the
 *                layout's fault, and the bucket placement can shrink.
 *
 * The shadow is driven by Mattson stack distances: an FA-LRU cache of
 * C lines hits exactly when the reuse distance (distinct lines touched
 * since the previous reference) is < C. Distances are computed over
 * *program* line ids rather than placed addresses: layouts are
 * validated non-overlapping, so the id->address map is a bijection and
 * the distance sequence is identical under every layout — which is why
 * the histogram and the compulsory count are layout-invariant while
 * the conflict/capacity split moves with the layout. So the sink
 * computes no distance itself: the replay reads each first-pass
 * fetch's reuse bucket and shadow verdict from the stream's memoised
 * reuse table (FetchStream::reuseTable, built once by Olken's
 * algorithm however many layouts replay the stream), takes later
 * passes in closed form, and hands the sink the entry. The sink keeps
 * tallies only: a log2-bucketed reuse-distance histogram (the
 * per-window form of which is the interval signature of Bueno et al.)
 * and the 3C counts, overall and per procedure. All state is sized at
 * construction (O(procedures)); classify() never allocates.
 */

#ifndef TOPO_CACHE_TAXONOMY_HH
#define TOPO_CACHE_TAXONOMY_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "topo/cache/cache_config.hh"
#include "topo/obs/json.hh"
#include "topo/obs/timeline.hh"
#include "topo/program/program.hh"
#include "topo/trace/reuse_table.hh"

namespace topo
{

/**
 * Stable MetricsRegistry counter name for reuse-distance bucket @p b:
 * "taxonomy.reuse.b00" .. "taxonomy.reuse.b32", "taxonomy.reuse.cold".
 */
std::string reuseBucketMetricName(std::size_t bucket);

/**
 * Human-readable stack-distance range for bucket @p b: "0",
 * "[2^(b-1), 2^b)" rendered as decimal bounds, or "cold" for the
 * first-touch bucket.
 */
std::string reuseBucketLabel(std::size_t bucket);

/** Aggregated 3C tallies for one procedure. */
struct ProcTaxonomy
{
    ProcId proc = kInvalidProc;
    std::uint64_t compulsory = 0;
    std::uint64_t capacity = 0;
    std::uint64_t conflict = 0;
};

/** 3C classifier + reuse-distance profiler for one simulation. */
class TaxonomySink
{
  public:
    /**
     * @param program            Procedure inventory (per-proc tallies).
     * @param program_line_count Dense program line id space of the
     *                           fetch stream being replayed; below
     *                           2^30, the limit of the 32-bit access
     *                           times that build its reuse table.
     * @param config             Real cache geometry; the FA shadow is
     *                           sized to config.lineCount().
     */
    TaxonomySink(const Program &program,
                 std::uint32_t program_line_count,
                 const CacheConfig &config);

    /**
     * Classify one fetch (hot path): @p proc fetched a line whose
     * reuse-table entry is @p entry (reuse_table.hh; built for
     * shadowLines()); @p hit says what the *real* cache did. Returns
     * the classification + reuse bucket for window-level accounting.
     */
    TaxonomyEvent
    classify(ProcId proc, std::uint8_t entry, bool hit)
    {
        TaxonomyEvent event;
        event.reuse_bucket =
            static_cast<std::uint8_t>(entry & kReuseBucketMask);
        ++reuse_hist_[event.reuse_bucket];
        if (hit)
            return event;
        if (event.reuse_bucket == kReuseColdBucket) {
            event.miss_class = MissClass::kCompulsory;
            ++compulsory_;
            ++compulsory_by_proc_[proc];
        } else if ((entry & kShadowHitBit) != 0) {
            event.miss_class = MissClass::kConflict;
            ++conflict_;
            ++conflict_by_proc_[proc];
        } else {
            event.miss_class = MissClass::kCapacity;
            ++capacity_;
            ++capacity_by_proc_[proc];
        }
        return event;
    }

    /**
     * Account @p fetches hits that repeat, back to back, the run of
     * @p line_count distinct lines fetched last. Each such fetch has
     * stack distance line_count - 1: since its line's previous fetch,
     * the other lines of the run were fetched once each. Returns the
     * fetches' reuse bucket.
     */
    std::uint8_t
    recordRepeats(std::uint32_t line_count, std::uint64_t fetches)
    {
        const std::uint8_t bucket = reuseBucketOf(line_count - 1);
        reuse_hist_[bucket] += fetches;
        return bucket;
    }

    std::uint64_t compulsory() const { return compulsory_; }
    std::uint64_t capacity() const { return capacity_; }
    std::uint64_t conflict() const { return conflict_; }
    std::uint64_t classifiedMisses() const
    {
        return compulsory_ + capacity_ + conflict_;
    }

    /** Shadow (== real) cache capacity in lines. */
    std::uint64_t shadowLines() const { return shadow_lines_; }

    /** Full-run reuse-distance histogram (log2 buckets + cold). */
    const std::array<std::uint64_t, kReuseBucketCount> &
    reuseHistogram() const
    {
        return reuse_hist_;
    }

    const std::vector<std::uint64_t> &compulsoryByProc() const
    {
        return compulsory_by_proc_;
    }
    const std::vector<std::uint64_t> &capacityByProc() const
    {
        return capacity_by_proc_;
    }
    const std::vector<std::uint64_t> &conflictByProc() const
    {
        return conflict_by_proc_;
    }

    /**
     * The @p k procedures with the most conflict misses, descending
     * (ties broken by procedure id for determinism). Procedures with
     * zero misses of any class are omitted.
     */
    std::vector<ProcTaxonomy> topProcs(std::size_t k) const;

    /**
     * JSON summary: 3C totals, reuse-distance histogram, and the top
     * @p top_k conflict-heavy procedures (names resolved).
     */
    JsonValue toJson(std::size_t top_k = 16) const;

  private:
    const Program *program_;
    std::uint64_t shadow_lines_;
    std::uint64_t compulsory_ = 0;
    std::uint64_t capacity_ = 0;
    std::uint64_t conflict_ = 0;
    std::array<std::uint64_t, kReuseBucketCount> reuse_hist_{};
    std::vector<std::uint64_t> compulsory_by_proc_;
    std::vector<std::uint64_t> capacity_by_proc_;
    std::vector<std::uint64_t> conflict_by_proc_;
};

} // namespace topo

#endif // TOPO_CACHE_TAXONOMY_HH
