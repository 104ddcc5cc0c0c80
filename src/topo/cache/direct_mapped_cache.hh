/**
 * @file
 * Direct-mapped instruction cache simulator.
 *
 * Tracks one tag per frame. An access presents a global line address
 * (byte address / line size); the simulator reports hit or miss and
 * updates state. Kept minimal and branch-light because the evaluation
 * harness replays tens of millions of accesses per candidate layout.
 */

#ifndef TOPO_CACHE_DIRECT_MAPPED_CACHE_HH
#define TOPO_CACHE_DIRECT_MAPPED_CACHE_HH

#include <cstdint>
#include <vector>

#include "topo/cache/cache_config.hh"

namespace topo
{

/** Direct-mapped cache over global line addresses. */
class DirectMappedCache
{
  public:
    /** Construct for a validated direct-mapped configuration. */
    explicit DirectMappedCache(const CacheConfig &config);

    /**
     * Access a global line address.
     *
     * @param line_addr Byte address divided by the line size.
     * @param effect    Optional out: the frame index and, on a miss,
     *                  the displaced line.
     * @return True on hit, false on miss (line is then filled).
     */
    bool
    access(std::uint64_t line_addr, AccessEffect *effect = nullptr)
    {
        if (line_addr == kInvalidFrame)
            failInvalidLineAddr("DirectMappedCache");
        const std::uint32_t index = mapSet(line_addr);
        if (effect != nullptr)
            effect->set = index;
        if (frames_[index] == line_addr)
            return true;
        if (effect != nullptr)
            effect->victim = frames_[index];
        frames_[index] = line_addr;
        return false;
    }

    /**
     * Replay a batch of repeat-compressed runs — each a span of
     * consecutive line addresses executed back-to-back one or more
     * times — and return how many accesses missed. Results are
     * bit-identical to feeding every expanded access through access().
     *
     * This is the simulator's unobserved fast path, with two exact
     * algebraic shortcuts over the naive replay:
     *
     * - A hit stores the identical tag back, so every probed access is
     *   one load, one store, and one compare with no data-dependent
     *   branch, and consecutive addresses within a run need no
     *   per-access stream or translation-table loads.
     * - A run of at most frameCount() consecutive lines occupies
     *   distinct frames, so after one pass every line of the run is
     *   resident; an immediately repeated execution therefore hits on
     *   every access and leaves the cache state untouched. Such
     *   repeats contribute no misses and are not replayed at all —
     *   loop-heavy traces spend 75-85% of their accesses there. Runs
     *   longer than the cache self-evict as they wrap, so their
     *   repeats are replayed in full (repeatResident()).
     *
     * The frame pointer and index mask are hoisted into locals for the
     * whole batch — inside a caller's loop the per-access stores (also
     * std::uint64_t) would otherwise force both to be reloaded every
     * iteration. @p run is invoked exactly once per run, in order,
     * with the run index [0, run_count), and returns {first line
     * address, line count, repeat count} with repeat count >= 1.
     *
     * Unlike access(), this loop does not guard against the
     * kInvalidLineAddr sentinel: the simulator's replay feeds it
     * 32-bit placed line addresses (simulate.cc bounds the layout
     * span to 2^32 lines), so the sentinel cannot occur here and the
     * probe stays branchless.
     */
    template <typename RunFn>
    std::uint64_t
    accessRunBatch(std::size_t run_count, RunFn &&run)
    {
        std::uint64_t *const frames = frames_.data();
        const std::uint64_t frame_count = frames_.size();
        std::uint64_t misses = 0;
        if (mask_ != 0) {
            const std::uint64_t mask = mask_;
            for (std::size_t r = 0; r < run_count; ++r) {
                const auto [base, len, repeats] = run(r);
                const std::uint32_t passes =
                    repeatResident(len) ? 1 : repeats;
                for (std::uint32_t pass = 0; pass < passes; ++pass) {
                    for (std::uint32_t j = 0; j < len; ++j) {
                        const std::uint64_t line_addr = base + j;
                        const std::size_t index =
                            static_cast<std::size_t>(line_addr & mask);
                        const std::uint64_t prev = frames[index];
                        frames[index] = line_addr;
                        misses += static_cast<std::uint64_t>(
                            prev != line_addr);
                    }
                }
            }
        } else {
            for (std::size_t r = 0; r < run_count; ++r) {
                const auto [base, len, repeats] = run(r);
                const std::uint32_t passes =
                    repeatResident(len) ? 1 : repeats;
                for (std::uint32_t pass = 0; pass < passes; ++pass) {
                    for (std::uint32_t j = 0; j < len; ++j) {
                        const std::uint64_t line_addr = base + j;
                        const std::size_t index =
                            static_cast<std::size_t>(line_addr %
                                                     frame_count);
                        const std::uint64_t prev = frames[index];
                        frames[index] = line_addr;
                        misses += static_cast<std::uint64_t>(
                            prev != line_addr);
                    }
                }
            }
        }
        return misses;
    }

    /**
     * True when an immediate repeat of a run of @p len consecutive
     * line addresses is all hits and leaves the cache state as the
     * previous pass left it: the run occupies distinct frames, so one
     * pass makes every line of it resident. Every replay that skips
     * repeats asks this one rule.
     */
    bool
    repeatResident(std::uint64_t len) const
    {
        return len <= frames_.size();
    }

    /** A repeat repeatResident() admits stores its tags back: no-op. */
    void creditRepeats(std::uint64_t, std::uint32_t, std::uint32_t) {}

    /** Number of frames (lines the cache can hold). */
    std::uint64_t frameCount() const { return frames_.size(); }

    /** Invalidate all frames. */
    void reset();

    /** Raw frame words for checkpointing (opaque to the caller). */
    const std::vector<std::uint64_t> &stateWords() const
    {
        return frames_;
    }

    /**
     * Restore frame words captured by stateWords() on an identically
     * configured cache; throws TopoError on a size mismatch.
     */
    void restoreStateWords(const std::vector<std::uint64_t> &words);

    /**
     * Frames currently holding a line. Misses minus this count equals
     * the number of evictions since construction/reset (each miss
     * fills exactly one frame and frames never empty again), which is
     * how the simulator derives its eviction counter without touching
     * the access path.
     */
    std::uint64_t validLineCount() const;

    /** Cache geometry. */
    const CacheConfig &config() const { return config_; }

    /** Frame (the set of one way) a global line address maps to. */
    std::uint32_t
    mapSet(std::uint64_t line_addr) const
    {
        if (mask_ != 0)
            return static_cast<std::uint32_t>(line_addr & mask_);
        return static_cast<std::uint32_t>(line_addr % frames_.size());
    }

  private:
    /** Tag value marking an empty frame. */
    static constexpr std::uint64_t kInvalidFrame = kInvalidLineAddr;

    CacheConfig config_;
    std::vector<std::uint64_t> frames_;
    std::uint64_t mask_; // non-zero iff frame count is a power of two
};

} // namespace topo

#endif // TOPO_CACHE_DIRECT_MAPPED_CACHE_HH
