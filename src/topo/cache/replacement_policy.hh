/**
 * @file
 * Replacement policies for the set-associative cache model.
 *
 * Each policy is a small value type holding the per-set replacement
 * metadata (recency stamps, PLRU tree bits, RRPV counters, FIFO
 * hands, or an RNG cursor) next to nothing else; PolicyCache composes
 * one with the tag array. The concept a policy must satisfy:
 *
 *   Policy(sets, ways, seed)     construct cold metadata
 *   void onHit(set, way)         an access hit this way
 *   uint32_t victimWay(set)      choose a victim; called only when
 *                                every way of the set holds a valid
 *                                line (cold fills take the lowest
 *                                invalid way without consulting the
 *                                policy, see PolicyCache::access)
 *   void onFill(set, way)        a miss filled this way
 *   void reset()                 return to the cold state (including
 *                                reseeding any RNG)
 *   state serialization          stateWordCount / appendStateWords /
 *                                restoreStateWords, for checkpoints
 *   kName                        CLI / report spelling
 *   kKind                        the ReplacementPolicy enumerator
 *   kRepeatElisionSound          whether the replay's repeat-elision
 *                                shortcut is exact (then onRepeats()
 *                                stamps the passes it skips exactly)
 *
 * kRepeatElisionSound gates the simulator's repeat shortcut
 * `passes = len <= lineCount() ? 1 : repeats` (see
 * PolicyCache::repeatResident, which the batched replay and the
 * observed replay both ask). The shortcut is exact iff one pass
 * over a run of at most lineCount() consecutive lines (a) leaves
 * every line of the run resident, so the repeated pass is all hits,
 * and (b) the all-hit pass restores the replacement metadata to the
 * state after the first pass, so eliding it cannot change any later
 * access. Both halves are true-LRU-specific:
 *
 *  - TrueLRU: sound. At most ways() lines of the run land in any set,
 *    and an LRU set never evicts one of its ways() most recently
 *    touched lines, so pass one leaves the whole run resident (a).
 *    The repeated pass hits every line and re-touches each set's
 *    lines in the same relative order, reproducing the identical
 *    recency ordering (absolute stamp values advance, but victimWay
 *    is a pure argmin within the set, so only the ordering is ever
 *    consulted) (b).
 *  - TreePLRU: UNSOUND. The tree only protects the log2(ways)+1 most
 *    recently touched ways (an 8-way tree guarantees 4), so a pass
 *    can evict a line of its own run and the repeat is not all-hits.
 *  - SRRIP: UNSOUND twice over. Aging on a miss can push a line the
 *    pass itself inserted (RRPV 2) out before long-resident RRPV-0
 *    lines, breaking (a); and even an all-hit pass promotes every
 *    touched line to RRPV 0, changing state that the first pass left
 *    at RRPV 2, breaking (b).
 *  - FIFO: UNSOUND. Hits do not refresh insertion order, so a line of
 *    the run that was already resident keeps its old queue position
 *    and can be evicted by the same pass's fills, breaking (a).
 *  - Random: UNSOUND. A drawn victim can be a line the pass itself
 *    inserted, breaking (a), and each draw advances the RNG, so even
 *    an all-hit outcome for the lines is not state-neutral once a
 *    miss occurs elsewhere in the run.
 *
 * The direct-mapped model keeps its unconditional shortcut: with one
 * way there is no replacement choice — at most frameCount()
 * consecutive lines occupy distinct frames, and a repeated pass
 * performs only idempotent tag stores.
 */

#ifndef TOPO_CACHE_REPLACEMENT_POLICY_HH
#define TOPO_CACHE_REPLACEMENT_POLICY_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace topo
{

/** Replacement policy selector carried by CacheConfig. */
enum class ReplacementPolicy : std::uint8_t
{
    kLru = 0,
    kPlru,
    kSrrip,
    kFifo,
    kRandom,
};

/** Every implemented policy, in enum order (probe/report iteration). */
inline constexpr std::array<ReplacementPolicy, 5>
    kAllReplacementPolicies = {
        ReplacementPolicy::kLru, ReplacementPolicy::kPlru,
        ReplacementPolicy::kSrrip, ReplacementPolicy::kFifo,
        ReplacementPolicy::kRandom};

/**
 * Default CacheConfig::policy_seed (the library-wide Rng default), so
 * seeded-random runs are reproducible without any flag.
 */
inline constexpr std::uint64_t kDefaultPolicySeed =
    0x9e3779b97f4a7c15ULL;

/** CLI / report spelling of a policy ("lru", "plru", ...). */
const char *replacementPolicyName(ReplacementPolicy policy);

/** Parse a --policy=NAME value; throws a user TopoError on unknowns. */
ReplacementPolicy parseReplacementPolicy(const std::string &name);

/**
 * True LRU via per-way recency stamps and a per-set access clock: a
 * touch stamps the way with the set's next clock tick, the victim is
 * the minimum stamp. Equivalent hit/miss/victim behaviour to the
 * classic MRU-ordered rotation at one store per hit instead of a
 * rotate.
 */
class TrueLruPolicy
{
  public:
    /** Sound — see the proof at the top of this file. */
    static constexpr bool kRepeatElisionSound = true;
    static constexpr ReplacementPolicy kKind = ReplacementPolicy::kLru;
    static constexpr const char *kName = "lru";

    TrueLruPolicy(std::uint32_t sets, std::uint32_t ways,
                  std::uint64_t /*seed*/)
        : ways_(ways),
          stamps_(static_cast<std::size_t>(sets) * ways, 0),
          clock_(sets, 0)
    {}

    void
    onHit(std::uint32_t set, std::uint32_t way)
    {
        stamps_[static_cast<std::size_t>(set) * ways_ + way] =
            ++clock_[set];
    }

    std::uint32_t
    victimWay(std::uint32_t set) const
    {
        const std::uint64_t *stamps =
            &stamps_[static_cast<std::size_t>(set) * ways_];
        std::uint32_t victim = 0;
        for (std::uint32_t w = 1; w < ways_; ++w) {
            if (stamps[w] < stamps[victim])
                victim = w;
        }
        return victim;
    }

    void onFill(std::uint32_t set, std::uint32_t way) { onHit(set, way); }

    /**
     * @p passes more all-hit passes of the @p touches lines a run just
     * touched in @p set: each re-stamps its newest stamps, in order.
     */
    void
    onRepeats(std::uint32_t set, std::uint32_t touches, std::uint32_t passes)
    {
        std::uint64_t *stamps = &stamps_[std::size_t{set} * ways_];
        const std::uint64_t shift = std::uint64_t{touches} * passes;
        for (std::uint32_t w = 0; w < ways_; ++w)
            stamps[w] += stamps[w] > clock_[set] - touches ? shift : 0;
        clock_[set] += shift;
    }

    void
    reset()
    {
        stamps_.assign(stamps_.size(), 0);
        clock_.assign(clock_.size(), 0);
    }

    std::size_t
    stateWordCount() const
    {
        return stamps_.size() + clock_.size();
    }

    void
    appendStateWords(std::vector<std::uint64_t> &words) const
    {
        words.insert(words.end(), stamps_.begin(), stamps_.end());
        words.insert(words.end(), clock_.begin(), clock_.end());
    }

    void
    restoreStateWords(const std::uint64_t *words)
    {
        stamps_.assign(words, words + stamps_.size());
        clock_.assign(words + stamps_.size(),
                      words + stamps_.size() + clock_.size());
    }

  private:
    std::uint32_t ways_;
    std::vector<std::uint64_t> stamps_;
    std::vector<std::uint64_t> clock_;
};

/**
 * Tree-PLRU: one bit per internal node of a binary tree over the
 * ways; a touch flips the path bits away from the touched way, the
 * victim follows the bits. Requires a power-of-two associativity of
 * at most 64 so one word holds a set's tree (enforced by
 * CacheConfig::validate).
 */
class TreePlruPolicy
{
  public:
    /** Unsound: protects only log2(ways)+1 recent ways (see header). */
    static constexpr bool kRepeatElisionSound = false;
    static constexpr ReplacementPolicy kKind = ReplacementPolicy::kPlru;
    static constexpr const char *kName = "plru";

    TreePlruPolicy(std::uint32_t sets, std::uint32_t ways,
                   std::uint64_t /*seed*/)
        : ways_(ways), levels_(0), bits_(sets, 0)
    {
        for (std::uint32_t w = ways; w > 1; w >>= 1)
            ++levels_;
    }

    void
    onHit(std::uint32_t set, std::uint32_t way)
    {
        std::uint64_t bits = bits_[set];
        std::uint32_t node = 1;
        for (std::uint32_t level = levels_; level > 0; --level) {
            const std::uint32_t dir = (way >> (level - 1)) & 1u;
            const std::uint64_t bit = std::uint64_t{1} << (node - 1);
            // Point the node away from the touched child.
            bits = dir != 0 ? bits & ~bit : bits | bit;
            node = node * 2 + dir;
        }
        bits_[set] = bits;
    }

    std::uint32_t
    victimWay(std::uint32_t set) const
    {
        const std::uint64_t bits = bits_[set];
        std::uint32_t node = 1;
        for (std::uint32_t level = 0; level < levels_; ++level) {
            const std::uint32_t dir = static_cast<std::uint32_t>(
                (bits >> (node - 1)) & 1u);
            node = node * 2 + dir;
        }
        return node - ways_;
    }

    void onFill(std::uint32_t set, std::uint32_t way) { onHit(set, way); }

    void reset() { bits_.assign(bits_.size(), 0); }

    std::size_t stateWordCount() const { return bits_.size(); }

    void
    appendStateWords(std::vector<std::uint64_t> &words) const
    {
        words.insert(words.end(), bits_.begin(), bits_.end());
    }

    void
    restoreStateWords(const std::uint64_t *words)
    {
        bits_.assign(words, words + bits_.size());
    }

  private:
    std::uint32_t ways_;
    std::uint32_t levels_;
    std::vector<std::uint64_t> bits_;
};

/**
 * Static RRIP (SRRIP-HP): 2-bit re-reference prediction values,
 * insert at 2 ("long"), promote to 0 on hit, evict the first way at 3
 * ("distant"), aging every way until one reaches 3.
 */
class SrripPolicy
{
  public:
    /** Unsound: aging evicts same-pass fills; hits rewrite RRPVs. */
    static constexpr bool kRepeatElisionSound = false;
    static constexpr ReplacementPolicy kKind = ReplacementPolicy::kSrrip;
    static constexpr const char *kName = "srrip";

    static constexpr std::uint8_t kMaxRrpv = 3;
    static constexpr std::uint8_t kInsertRrpv = 2;

    SrripPolicy(std::uint32_t sets, std::uint32_t ways,
                std::uint64_t /*seed*/)
        : ways_(ways),
          rrpv_(static_cast<std::size_t>(sets) * ways, kMaxRrpv)
    {}

    void
    onHit(std::uint32_t set, std::uint32_t way)
    {
        rrpv_[static_cast<std::size_t>(set) * ways_ + way] = 0;
    }

    std::uint32_t
    victimWay(std::uint32_t set)
    {
        std::uint8_t *rrpv =
            &rrpv_[static_cast<std::size_t>(set) * ways_];
        for (;;) {
            for (std::uint32_t w = 0; w < ways_; ++w) {
                if (rrpv[w] == kMaxRrpv)
                    return w;
            }
            for (std::uint32_t w = 0; w < ways_; ++w)
                ++rrpv[w];
        }
    }

    void
    onFill(std::uint32_t set, std::uint32_t way)
    {
        rrpv_[static_cast<std::size_t>(set) * ways_ + way] =
            kInsertRrpv;
    }

    void reset() { rrpv_.assign(rrpv_.size(), kMaxRrpv); }

    std::size_t stateWordCount() const { return rrpv_.size(); }

    void
    appendStateWords(std::vector<std::uint64_t> &words) const
    {
        words.insert(words.end(), rrpv_.begin(), rrpv_.end());
    }

    void
    restoreStateWords(const std::uint64_t *words)
    {
        for (std::size_t i = 0; i < rrpv_.size(); ++i)
            rrpv_[i] = static_cast<std::uint8_t>(words[i]);
    }

  private:
    std::uint32_t ways_;
    std::vector<std::uint8_t> rrpv_;
};

/**
 * FIFO via a per-set clock hand. Cold fills take ways in index order
 * (PolicyCache fills the lowest invalid way), which matches the
 * hand's sweep, so the hand always points at the oldest insertion;
 * hits deliberately do not move it.
 */
class FifoPolicy
{
  public:
    /** Unsound: hits do not refresh insertion order (see header). */
    static constexpr bool kRepeatElisionSound = false;
    static constexpr ReplacementPolicy kKind = ReplacementPolicy::kFifo;
    static constexpr const char *kName = "fifo";

    FifoPolicy(std::uint32_t sets, std::uint32_t ways,
               std::uint64_t /*seed*/)
        : ways_(ways), hand_(sets, 0)
    {}

    void onHit(std::uint32_t /*set*/, std::uint32_t /*way*/) {}

    std::uint32_t
    victimWay(std::uint32_t set) const
    {
        return hand_[set];
    }

    void
    onFill(std::uint32_t set, std::uint32_t way)
    {
        hand_[set] = (way + 1) % ways_;
    }

    void reset() { hand_.assign(hand_.size(), 0); }

    std::size_t stateWordCount() const { return hand_.size(); }

    void
    appendStateWords(std::vector<std::uint64_t> &words) const
    {
        words.insert(words.end(), hand_.begin(), hand_.end());
    }

    void
    restoreStateWords(const std::uint64_t *words)
    {
        for (std::size_t i = 0; i < hand_.size(); ++i)
            hand_[i] = static_cast<std::uint32_t>(words[i]);
    }

  private:
    std::uint32_t ways_;
    std::vector<std::uint32_t> hand_;
};

/**
 * Seeded random replacement: one SplitMix64 cursor per cache
 * instance, advanced only when a full set must choose a victim (cold
 * fills draw nothing, keeping warm-up deterministic across policies).
 * The cursor is part of the checkpoint state and reseeds on reset(),
 * so runs are bit-identical for a given CacheConfig::policy_seed
 * regardless of --jobs (each simulation owns its cache instance).
 */
class RandomPolicy
{
  public:
    /** Unsound: a draw can evict the current pass's own fill. */
    static constexpr bool kRepeatElisionSound = false;
    static constexpr ReplacementPolicy kKind =
        ReplacementPolicy::kRandom;
    static constexpr const char *kName = "random";

    RandomPolicy(std::uint32_t /*sets*/, std::uint32_t ways,
                 std::uint64_t seed)
        : ways_(ways), seed_(seed), state_(seed)
    {}

    void onHit(std::uint32_t /*set*/, std::uint32_t /*way*/) {}

    std::uint32_t
    victimWay(std::uint32_t /*set*/)
    {
        // SplitMix64 step; unbiased-enough range reduction by the
        // high multiply (ways is tiny next to 2^64).
        state_ += 0x9e3779b97f4a7c15ULL;
        std::uint64_t z = state_;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        z ^= z >> 31;
        return static_cast<std::uint32_t>(
            (static_cast<unsigned __int128>(z) * ways_) >> 64);
    }

    void onFill(std::uint32_t /*set*/, std::uint32_t /*way*/) {}

    void reset() { state_ = seed_; }

    std::size_t stateWordCount() const { return 1; }

    void
    appendStateWords(std::vector<std::uint64_t> &words) const
    {
        words.push_back(state_);
    }

    void restoreStateWords(const std::uint64_t *words)
    {
        state_ = words[0];
    }

  private:
    std::uint32_t ways_;
    std::uint64_t seed_;
    std::uint64_t state_;
};

} // namespace topo

#endif // TOPO_CACHE_REPLACEMENT_POLICY_HH
