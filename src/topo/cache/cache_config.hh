/**
 * @file
 * Instruction cache configuration shared by the simulators and the
 * placement algorithms (which need line size and line count to reason
 * about cache-relative alignment).
 */

#ifndef TOPO_CACHE_CACHE_CONFIG_HH
#define TOPO_CACHE_CACHE_CONFIG_HH

#include <cstdint>
#include <string>

#include "topo/cache/replacement_policy.hh"

namespace topo
{

/**
 * Line-address value both cache models reserve as the empty-frame /
 * empty-way sentinel. A real access with this address would read as
 * always-resident wherever an invalid frame remains and would never
 * be reported as a valid victim, so the models reject it (a layout
 * would need to end at the top of the 64-bit address space to
 * produce it).
 */
inline constexpr std::uint64_t kInvalidLineAddr = ~std::uint64_t{0};

/** Throw the user-error TopoError for an access to kInvalidLineAddr. */
[[noreturn]] void failInvalidLineAddr(const char *model);

/**
 * What one access did, reported by a cache model's access() when the
 * caller passes one: the set the line mapped to and, on a miss, the
 * line the fill displaced (kInvalidLineAddr when it took an empty
 * way). A hit leaves the victim untouched.
 */
struct AccessEffect
{
    std::uint32_t set = 0;
    std::uint64_t victim = kInvalidLineAddr;
};

/**
 * Geometry of an instruction cache.
 *
 * Line counts are not required to be powers of two (the paper's
 * Figure 1 example uses a 3-line cache); the simulators use general
 * modulo indexing with a fast path for powers of two.
 */
struct CacheConfig
{
    std::uint32_t size_bytes = 8 * 1024;
    std::uint32_t line_bytes = 32;
    std::uint32_t associativity = 1;
    /** Replacement policy for associative geometries (1-way caches
     *  have no replacement choice and always take the direct-mapped
     *  model regardless of this field). */
    ReplacementPolicy policy = ReplacementPolicy::kLru;
    /** Seed for ReplacementPolicy::kRandom victim draws. */
    std::uint64_t policy_seed = kDefaultPolicySeed;

    /** Total number of lines (frames) in the cache. */
    std::uint32_t
    lineCount() const
    {
        return size_bytes / line_bytes;
    }

    /** Number of sets (lineCount / associativity). */
    std::uint32_t
    setCount() const
    {
        return lineCount() / associativity;
    }

    /** Validate geometry; throws TopoError on nonsense. */
    void validate() const;

    /** Human-readable description, e.g. "8KB direct-mapped, 32B lines". */
    std::string describe() const;

    /** The paper's evaluation cache: 8 KB direct-mapped, 32 B lines. */
    static CacheConfig
    paperDefault()
    {
        return CacheConfig{8 * 1024, 32, 1};
    }

    /** The Section 6 cache: 8 KB 2-way set-associative, 32 B lines. */
    static CacheConfig
    paperTwoWay()
    {
        return CacheConfig{8 * 1024, 32, 2};
    }
};

} // namespace topo

#endif // TOPO_CACHE_CACHE_CONFIG_HH
