/**
 * @file
 * TemporalQueue: the ordered set Q of Section 3.
 *
 * Q holds recently-referenced code-block identifiers in trace order,
 * bounded by a byte budget (the paper uses twice the cache size). Each
 * block appears at most once — on a repeat reference the older entry
 * is consumed — which lets us implement Q as an intrusive doubly-linked
 * list indexed by block id: O(1) membership test, O(1) removal, O(k)
 * walk over the k blocks between two consecutive references.
 */

#ifndef TOPO_PROFILE_TEMPORAL_QUEUE_HH
#define TOPO_PROFILE_TEMPORAL_QUEUE_HH

#include <cstdint>
#include <vector>

#include "topo/profile/weighted_graph.hh"

namespace topo
{

/**
 * Byte-budgeted ordered set of code-block ids.
 */
class TemporalQueue
{
  public:
    /**
     * @param block_sizes Per-block byte sizes (indexed by block id).
     * @param byte_budget Eviction threshold: after processing, the
     *                    oldest entries are dropped while removal keeps
     *                    the resident total at or above this budget.
     */
    TemporalQueue(std::vector<std::uint32_t> block_sizes,
                  std::uint64_t byte_budget);

    /** Sentinel id meaning "none". */
    static constexpr BlockId kNone = ~BlockId{0};

    /** True when @p id is currently resident. */
    bool
    contains(BlockId id) const
    {
        return resident_[id] != 0;
    }

    /** Id following @p id towards the most recent end; kNone at end. */
    BlockId
    after(BlockId id) const
    {
        return next_[id];
    }

    /** Oldest resident id; kNone when empty. */
    BlockId oldest() const { return head_; }

    /** Most recent resident id; kNone when empty. */
    BlockId newest() const { return tail_; }

    /** Number of resident blocks. */
    std::size_t size() const { return count_; }

    /** Sum of resident block sizes in bytes. */
    std::uint64_t residentBytes() const { return resident_bytes_; }

    /**
     * Budget-driven removals since construction or clear(). Repeat
     * references consuming their older entry do not count; this is
     * the "Q was too small to hold the working set" signal exported
     * through the metrics registry.
     */
    std::uint64_t evictionCount() const { return evictions_; }

    /**
     * Process the next trace reference per the Section 3 recipe.
     *
     * If @p id was resident, @p between is filled with every block
     * strictly between the previous reference and the new one (trace
     * order) and the previous entry is removed; otherwise @p between is
     * emptied and the queue is trimmed from the oldest end per the byte
     * budget. In both cases @p id is then appended as most recent.
     *
     * @param id      Referenced block.
     * @param between Output: blocks between consecutive references.
     * @return True when a previous reference existed (i.e. the caller
     *         should credit TRG edges for @p between).
     */
    bool reference(BlockId id, std::vector<BlockId> &between);

    /**
     * State-only reference: identical queue transition to reference()
     * — consume-and-reappend or append-and-trim — without collecting
     * the between list. O(1); the TRG walk uses it wherever it
     * credits nothing from the between list.
     */
    void touch(BlockId id);

    /** Resident ids from oldest to newest (for tests/diagnostics). */
    std::vector<BlockId> contents() const;

    /** Remove everything. */
    void clear();

  private:
    void detach(BlockId id);
    void append(BlockId id);
    void trim();

    std::vector<std::uint32_t> sizes_;
    std::uint64_t byte_budget_;
    std::vector<BlockId> prev_;
    std::vector<BlockId> next_;
    /**
     * One byte per block id instead of std::vector<bool>: the
     * membership test sits on the per-reference path of every TRG /
     * pair-database walk, and a plain byte load avoids the proxy
     * object and shift/mask of the packed-bit specialisation
     * (measured in bench/perf_microbench BM_TemporalQueueWalk).
     */
    std::vector<std::uint8_t> resident_;
    BlockId head_ = kNone;
    BlockId tail_ = kNone;
    std::size_t count_ = 0;
    std::uint64_t resident_bytes_ = 0;
    std::uint64_t evictions_ = 0;
};

} // namespace topo

#endif // TOPO_PROFILE_TEMPORAL_QUEUE_HH
