/**
 * @file
 * N-way set-associative instruction cache templated over the
 * replacement policy (replacement_policy.hh), used by the Section 6
 * extension experiments and the policy-robustness reports. A 1-way
 * instance of every policy behaves identically to DirectMappedCache
 * (verified by test); SetAssociativeCache keeps its historical
 * meaning as the true-LRU instantiation.
 */

#ifndef TOPO_CACHE_SET_ASSOCIATIVE_CACHE_HH
#define TOPO_CACHE_SET_ASSOCIATIVE_CACHE_HH

#include <cstdint>
#include <vector>

#include "topo/cache/cache_config.hh"
#include "topo/cache/direct_mapped_cache.hh"
#include "topo/cache/replacement_policy.hh"
#include "topo/util/error.hh"

namespace topo
{

/** Set-associative cache over global line addresses. */
template <typename Policy>
class PolicyCache
{
  public:
    /** Tag value marking an empty way. */
    static constexpr std::uint64_t kInvalidTag = kInvalidLineAddr;

    /** Construct for a validated configuration. */
    explicit PolicyCache(const CacheConfig &config)
        : config_(config), sets_(0), ways_(0), mask_(0),
          policy_(makePolicy(config_))
    {
        sets_ = config_.setCount();
        ways_ = config_.associativity;
        mask_ = isPowerOfTwo(sets_) ? sets_ - 1 : 0;
        tags_.assign(static_cast<std::size_t>(sets_) * ways_,
                     kInvalidTag);
    }

    /**
     * Access a global line address.
     *
     * @param line_addr Byte address divided by the line size.
     * @param effect    Optional out: the set index and, on a miss, the
     *                  displaced line.
     * @return True on hit, false on miss (line then filled; the
     *         lowest invalid way if one exists, else the policy's
     *         victim).
     */
    bool
    access(std::uint64_t line_addr, AccessEffect *effect = nullptr)
    {
        if (line_addr == kInvalidTag)
            failInvalidLineAddr("SetAssociativeCache");
        const std::uint32_t set = mapSet(line_addr);
        if (effect != nullptr)
            effect->set = set;
        std::uint64_t *base =
            &tags_[static_cast<std::size_t>(set) * ways_];
        for (std::uint32_t w = 0; w < ways_; ++w) {
            if (base[w] == line_addr) {
                policy_.onHit(set, w);
                return true;
            }
        }
        const std::uint32_t way = fillWay(set, base);
        if (effect != nullptr)
            effect->victim = base[way];
        base[way] = line_addr;
        return false;
    }

    /**
     * Replay a batch of repeat-compressed runs and return how many
     * accesses missed; results are bit-identical to feeding every
     * expanded access through access(). Counterpart of
     * DirectMappedCache::accessRunBatch so the simulator's batched
     * replay path compiles for any cache model; replacement updates
     * keep the per-access branch here.
     *
     * The repeat-elision shortcut (one pass stands in for all repeats
     * of a run no longer than the cache) is applied only when the
     * policy declares it exact via Policy::kRepeatElisionSound; see
     * replacement_policy.hh for the true-LRU proof and the
     * counterexamples that make every other policy replay repeats in
     * full.
     *
     * @p run is invoked exactly once per run, in order, with the run
     * index [0, run_count), and returns {first line address, line
     * count, repeat count} with repeat count >= 1.
     */
    template <typename RunFn>
    std::uint64_t
    accessRunBatch(std::size_t run_count, RunFn &&run)
    {
        std::uint64_t misses = 0;
        for (std::size_t r = 0; r < run_count; ++r) {
            const auto [base, len, repeats] = run(r);
            const std::uint32_t passes =
                repeatResident(len) ? 1 : repeats;
            for (std::uint32_t pass = 0; pass < passes; ++pass) {
                for (std::uint32_t j = 0; j < len; ++j) {
                    misses +=
                        static_cast<std::uint64_t>(!access(base + j));
                }
            }
        }
        return misses;
    }

    /**
     * True when an immediate repeat of a run of @p len consecutive
     * line addresses is all hits and leaves the cache state as the
     * previous pass left it: the run fits the cache and the policy
     * declares the shortcut exact (Policy::kRepeatElisionSound).
     * Every replay that skips repeats asks this one rule.
     */
    bool
    repeatResident(std::uint64_t len) const
    {
        return Policy::kRepeatElisionSound &&
               len <= static_cast<std::uint64_t>(sets_) * ways_;
    }

    /**
     * Credit @p passes more all-hit passes of a run repeatResident()
     * admits, right after one: true LRU's stamps move as a replay's.
     */
    void
    creditRepeats(std::uint64_t base, std::uint32_t len, std::uint32_t passes)
    {
        if constexpr (Policy::kRepeatElisionSound) {
            // Line j maps to set base + j: the first len % sets sets
            // take one touch more.
            for (std::uint32_t j = 0; j < len && j < sets_; ++j)
                policy_.onRepeats(mapSet(base + j),
                                  len / sets_ + (j < len % sets_ ? 1 : 0),
                                  passes);
        }
    }

    /** Invalidate all ways and reset the replacement metadata. */
    void
    reset()
    {
        tags_.assign(tags_.size(), kInvalidTag);
        policy_.reset();
    }

    /**
     * Raw state for checkpointing (opaque): set-major tag words
     * followed by the policy's replacement metadata.
     */
    std::vector<std::uint64_t>
    stateWords() const
    {
        std::vector<std::uint64_t> words;
        words.reserve(tags_.size() + policy_.stateWordCount());
        words.insert(words.end(), tags_.begin(), tags_.end());
        policy_.appendStateWords(words);
        return words;
    }

    /**
     * Restore state captured by stateWords() on an identically
     * configured cache; throws TopoError on a size mismatch.
     */
    void
    restoreStateWords(const std::vector<std::uint64_t> &words)
    {
        requireData(words.size() ==
                        tags_.size() + policy_.stateWordCount(),
                    "SetAssociativeCache: checkpoint state size "
                    "mismatch (different cache geometry or policy?)");
        tags_.assign(words.begin(),
                     words.begin() +
                         static_cast<std::ptrdiff_t>(tags_.size()));
        policy_.restoreStateWords(words.data() + tags_.size());
    }

    /**
     * Ways currently holding a line. Misses minus this count equals
     * the number of evictions since construction/reset for every
     * policy: a miss fills the lowest invalid way while one exists
     * (never consulting the policy), so each miss either claims an
     * empty way or displaces exactly one valid line, and ways never
     * empty again.
     */
    std::uint64_t
    validLineCount() const
    {
        std::uint64_t valid = 0;
        for (const std::uint64_t tag : tags_) {
            if (tag != kInvalidTag)
                ++valid;
        }
        return valid;
    }

    /** Cache geometry. */
    const CacheConfig &config() const { return config_; }

    /** Set index a global line address maps to. */
    std::uint32_t
    mapSet(std::uint64_t line_addr) const
    {
        if (mask_ != 0)
            return static_cast<std::uint32_t>(line_addr & mask_);
        return static_cast<std::uint32_t>(line_addr % sets_);
    }

  private:
    static bool
    isPowerOfTwo(std::uint64_t x)
    {
        return x != 0 && (x & (x - 1)) == 0;
    }

    static Policy
    makePolicy(const CacheConfig &config)
    {
        config.validate();
        return Policy(config.setCount(), config.associativity,
                      config.policy_seed);
    }

    /**
     * Choose the way a miss fills: invalid-first (preserving the
     * "misses - validLineCount() == evictions" accounting for every
     * policy, random included), else the policy's victim. Updates the
     * policy metadata for the fill.
     */
    std::uint32_t
    fillWay(std::uint32_t set, const std::uint64_t *base)
    {
        std::uint32_t way = ways_;
        for (std::uint32_t w = 0; w < ways_; ++w) {
            if (base[w] == kInvalidTag) {
                way = w;
                break;
            }
        }
        if (way == ways_)
            way = policy_.victimWay(set);
        policy_.onFill(set, way);
        return way;
    }

    CacheConfig config_;
    std::uint32_t sets_;
    std::uint32_t ways_;
    std::uint64_t mask_;
    /** Tags laid out set-major: tags_[set * ways + w]. */
    std::vector<std::uint64_t> tags_;
    Policy policy_;
};

/** The historical (true-LRU) set-associative cache. */
using SetAssociativeCache = PolicyCache<TrueLruPolicy>;

extern template class PolicyCache<TrueLruPolicy>;
extern template class PolicyCache<TreePlruPolicy>;
extern template class PolicyCache<SrripPolicy>;
extern template class PolicyCache<FifoPolicy>;
extern template class PolicyCache<RandomPolicy>;

/**
 * Build the cache model @p config names and call @p fn with it (an
 * lvalue). One way leaves no replacement choice, so every policy
 * degenerates to DirectMappedCache (verified by test) and its
 * branchless replay serves them all; otherwise the PolicyCache of
 * config.policy.
 */
template <typename Fn>
void
withCacheModel(const CacheConfig &config, Fn &&fn)
{
    if (config.associativity == 1) {
        DirectMappedCache cache(config);
        fn(cache);
        return;
    }
    switch (config.policy) {
      case ReplacementPolicy::kLru: {
        PolicyCache<TrueLruPolicy> cache(config);
        fn(cache);
        return;
      }
      case ReplacementPolicy::kPlru: {
        PolicyCache<TreePlruPolicy> cache(config);
        fn(cache);
        return;
      }
      case ReplacementPolicy::kSrrip: {
        PolicyCache<SrripPolicy> cache(config);
        fn(cache);
        return;
      }
      case ReplacementPolicy::kFifo: {
        PolicyCache<FifoPolicy> cache(config);
        fn(cache);
        return;
      }
      case ReplacementPolicy::kRandom: {
        PolicyCache<RandomPolicy> cache(config);
        fn(cache);
        return;
      }
    }
    failInternal("withCacheModel: unknown policy enumerator");
}

} // namespace topo

#endif // TOPO_CACHE_SET_ASSOCIATIVE_CACHE_HH
