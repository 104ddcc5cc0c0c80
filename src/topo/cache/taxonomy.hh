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
 * since the previous reference) is < C. Distances come from Olken's
 * algorithm — count the lines whose last access is later than this
 * line's — over a Fenwick tree of live access times, O(log n) per
 * access, and double as a log2-bucketed reuse-distance histogram, the
 * per-window form of which is the interval signature ROADMAP item 3
 * consumes.
 *
 * Distances are computed over *program* line ids rather than placed
 * addresses: layouts are validated non-overlapping, so the id->address
 * map is a bijection and the distance sequence is identical — which is
 * also why the histogram and the compulsory count are layout-invariant
 * while the conflict/capacity split moves with the layout. All state
 * is sized at construction (O(program lines)); record() never
 * allocates.
 */

#ifndef TOPO_CACHE_TAXONOMY_HH
#define TOPO_CACHE_TAXONOMY_HH

#include <array>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "topo/cache/cache_config.hh"
#include "topo/obs/json.hh"
#include "topo/obs/timeline.hh"
#include "topo/program/program.hh"

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
     *                           2^30, so that access times (up to
     *                           twice the line count) and their
     *                           Fenwick-tree walks fit 32 bits.
     * @param config             Real cache geometry; the FA shadow is
     *                           sized to config.lineCount().
     */
    TaxonomySink(const Program &program,
                 std::uint32_t program_line_count,
                 const CacheConfig &config);

    /**
     * Classify one fetch (hot path): @p proc touched program line
     * @p line_id; @p hit says what the *real* cache did. Returns the
     * classification + reuse bucket for window-level accounting.
     */
    TaxonomyEvent
    record(ProcId proc, std::uint32_t line_id, bool hit)
    {
        // Compact before reading the line's time: compaction renumbers
        // it, and must see it still live.
        if (now_ == time_limit_)
            compactTimes();
        TaxonomyEvent event;
        const std::uint32_t prev = last_time_[line_id];
        if (prev == 0) {
            ++live_;
            event.reuse_bucket =
                static_cast<std::uint8_t>(kReuseColdBucket);
            if (!hit) {
                event.miss_class = MissClass::kCompulsory;
                ++compulsory_;
                ++compulsory_by_proc_[proc];
            }
        } else {
            // Lines last touched after prev: the live times above it.
            const std::uint64_t distance = live_ - liveUpTo(prev);
            event.reuse_bucket = bucketOf(distance);
            addLive(prev, ~std::uint32_t{0});
            if (!hit) {
                if (distance < shadow_lines_) {
                    event.miss_class = MissClass::kConflict;
                    ++conflict_;
                    ++conflict_by_proc_[proc];
                } else {
                    event.miss_class = MissClass::kCapacity;
                    ++capacity_;
                    ++capacity_by_proc_[proc];
                }
            }
        }
        ++now_;
        addLive(now_, 1);
        last_time_[line_id] = now_;
        line_at_[now_] = line_id;
        ++reuse_hist_[event.reuse_bucket];
        return event;
    }

    /** Log2 bucket for stack distance @p d (0 -> 0, else bit width). */
    static std::uint8_t
    bucketOf(std::uint64_t d)
    {
        if (d == 0)
            return 0;
        const int width = std::bit_width(d);
        return static_cast<std::uint8_t>(width < 33 ? width : 32);
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
    /** Live times in [1, t]: a Fenwick-tree prefix sum. */
    std::uint32_t
    liveUpTo(std::uint32_t t) const
    {
        std::uint32_t count = 0;
        for (; t != 0; t &= t - 1)
            count += fenwick_[t];
        return count;
    }

    /** Add @p delta (modulo 2^32, so ~0 subtracts one) at time @p t. */
    void
    addLive(std::uint32_t t, std::uint32_t delta)
    {
        for (; t <= time_limit_; t += t & (0u - t))
            fenwick_[t] += delta;
    }

    /** Renumber the live times 1..live in order; rebuild the tree. */
    void compactTimes();

    const Program *program_;
    std::uint64_t shadow_lines_;
    /** Largest access time; compaction runs when now_ reaches it. */
    std::uint32_t time_limit_;
    /** Last access time per program line; 0 = never touched. */
    std::vector<std::uint32_t> last_time_;
    /** Line accessed at each time, 1-based; meaningful at live times. */
    std::vector<std::uint32_t> line_at_;
    /** Fenwick tree over times 1..time_limit_: 1 at each live time. */
    std::vector<std::uint32_t> fenwick_;
    /** Last time handed out. */
    std::uint32_t now_ = 0;
    /** Distinct lines touched so far (= live times). */
    std::uint32_t live_ = 0;
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
