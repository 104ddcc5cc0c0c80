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
     * One pass over a run of @p len consecutive line addresses from
     * @p base; returns how many of them missed. Bit-identical to
     * feeding each address through access(), and the replay's
     * unobserved fast path: a hit stores the identical tag back, so
     * every access is one load, one store and one compare with no
     * data-dependent branch. The frame pointer and index mask live in
     * locals, since the per-access std::uint64_t stores would
     * otherwise force both to be reloaded every iteration.
     *
     * Unlike access(), this loop does not guard against the
     * kInvalidLineAddr sentinel: the replay feeds it 32-bit placed
     * line addresses (simulate.cc bounds the layout span to 2^32
     * lines), so the sentinel cannot occur here and the probe stays
     * branchless.
     */
    std::uint64_t
    accessRun(std::uint64_t base, std::uint32_t len)
    {
        std::uint64_t *const frames = frames_.data();
        std::uint64_t misses = 0;
        if (mask_ != 0) {
            const std::uint64_t mask = mask_;
            for (std::uint32_t j = 0; j < len; ++j) {
                const std::uint64_t line_addr = base + j;
                const std::size_t index =
                    static_cast<std::size_t>(line_addr & mask);
                const std::uint64_t prev = frames[index];
                frames[index] = line_addr;
                misses += static_cast<std::uint64_t>(prev != line_addr);
            }
        } else {
            const std::uint64_t frame_count = frames_.size();
            for (std::uint32_t j = 0; j < len; ++j) {
                const std::uint64_t line_addr = base + j;
                const std::size_t index =
                    static_cast<std::size_t>(line_addr % frame_count);
                const std::uint64_t prev = frames[index];
                frames[index] = line_addr;
                misses += static_cast<std::uint64_t>(prev != line_addr);
            }
        }
        return misses;
    }

    /**
     * True when an immediate repeat of a run of @p len consecutive
     * line addresses is all hits and leaves the cache state as the
     * previous pass left it: the run occupies distinct frames, so one
     * pass makes every line of it resident, and a repeat performs
     * only idempotent tag stores. Runs longer than the cache
     * self-evict as they wrap, so their repeats are replayed in full.
     * Every replay that skips repeats asks this one rule.
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
