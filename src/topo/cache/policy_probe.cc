#include "topo/cache/policy_probe.hh"

#include <type_traits>
#include <utility>

#include "topo/cache/set_associative_cache.hh"
#include "topo/util/error.hh"

namespace topo
{

namespace
{

/** PolicyProbeTarget over one of the simulator's cache models. */
template <typename Cache>
class CacheTarget final : public PolicyProbeTarget
{
  public:
    explicit CacheTarget(Cache cache) : cache_(std::move(cache)) {}

    bool access(std::uint64_t line_addr) override
    {
        return cache_.access(line_addr);
    }

    void reset() override { cache_.reset(); }

  private:
    Cache cache_;
};

/**
 * The battery's probe geometries. Small on purpose: inference needs
 * eviction decisions, not capacity. All associativities are >= 4
 * (1-way caches have no replacement policy to identify) and powers
 * of two so PLRU is constructible.
 */
const CacheConfig kProbeGeometries[] = {
    CacheConfig{128, 32, 4},  // 1 set x 4 ways
    CacheConfig{256, 32, 8},  // 1 set x 8 ways
    CacheConfig{512, 32, 4},  // 4 sets x 4 ways
};

/** Rounds of the variability experiment (no reset in between). */
constexpr std::uint64_t kVariabilityTrials = 12;

/**
 * Run the battery on one geometry, appending every access outcome to
 * @p bits. Line addresses are multiplied by the set count so the
 * named experiments all land in set 0; the final sweep uses raw
 * addresses to exercise every set (and any cross-set policy state,
 * like the random policy's shared RNG cursor).
 */
void
probeGeometry(PolicyProbeTarget &target, const CacheConfig &config,
              std::vector<bool> &bits)
{
    const std::uint64_t sets = config.setCount();
    const std::uint64_t ways = config.associativity;
    auto touch = [&](std::uint64_t k) {
        bits.push_back(target.access(k * sets));
    };
    auto fill = [&]() {
        for (std::uint64_t k = 0; k < ways; ++k)
            touch(k);
    };

    // Cold fill + re-probe.
    target.reset();
    fill();
    fill();

    // Hit refresh: does touching line 0 protect it from the fresh
    // insert, and in what order do the cascading probe misses evict?
    target.reset();
    fill();
    touch(0);
    touch(ways);
    for (std::uint64_t k = 0; k <= ways; ++k)
        touch(k);

    // Insertion priority: promote all but the last resident line,
    // then insert two fresh lines — a distant-insertion policy
    // (SRRIP) sacrifices its own first insert, a recency policy
    // keeps it.
    target.reset();
    fill();
    for (std::uint64_t k = 0; k + 1 < ways; ++k)
        touch(k);
    touch(ways);
    touch(ways + 1);
    touch(ways);
    touch(ways + 1);
    touch(0);

    // Eviction sweep: a stream of fresh inserts, re-probing the first
    // of them after each — exposes aging dynamics.
    target.reset();
    fill();
    for (std::uint64_t j = 0; j < ways; ++j) {
        touch(2 * ways + j);
        touch(2 * ways);
    }

    // Variability trials: identical evict-and-probe rounds with no
    // reset; deterministic policies settle into a fixed pattern, the
    // random policy's cursor keeps advancing.
    target.reset();
    fill();
    for (std::uint64_t trial = 0; trial < kVariabilityTrials; ++trial) {
        const std::uint64_t base = 100 + trial * ways;
        for (std::uint64_t j = 0; j < ways; ++j)
            touch(base + j);
        touch(base);
    }

    // Raw-address sweep across every set, twice, then one fresh
    // insert per set probed against the set's oldest line.
    target.reset();
    for (std::uint64_t a = 0; a < sets * ways; ++a)
        bits.push_back(target.access(a));
    for (std::uint64_t a = 0; a < sets * ways; ++a)
        bits.push_back(target.access(a));
    for (std::uint64_t a = sets * ways; a < sets * ways + sets; ++a)
        bits.push_back(target.access(a));
    for (std::uint64_t a = 0; a < sets; ++a)
        bits.push_back(target.access(a));
}

} // namespace

std::string
ProbeSignature::describe() const
{
    std::string out;
    out.reserve(bits.size());
    for (const bool bit : bits)
        out.push_back(bit ? '1' : '0');
    return out;
}

std::unique_ptr<PolicyProbeTarget>
makeCacheTarget(const CacheConfig &config)
{
    std::unique_ptr<PolicyProbeTarget> target;
    withCacheModel(config, [&target](auto &cache) {
        using Cache = std::remove_reference_t<decltype(cache)>;
        target = std::make_unique<CacheTarget<Cache>>(std::move(cache));
    });
    return target;
}

ProbeSignature
probeSignature(const ProbeTargetFactory &factory)
{
    ProbeSignature signature;
    for (const CacheConfig &geometry : kProbeGeometries) {
        const std::unique_ptr<PolicyProbeTarget> target =
            factory(geometry);
        require(target != nullptr,
                "probeSignature: target factory returned null");
        probeGeometry(*target, geometry, signature.bits);
    }
    return signature;
}

PolicyProbeResult
inferPolicy(const ProbeTargetFactory &factory, std::uint64_t seed)
{
    PolicyProbeResult result;
    result.observed = probeSignature(factory);

    std::vector<ProbeSignature> references;
    for (const ReplacementPolicy policy : kAllReplacementPolicies) {
        references.push_back(
            probeSignature([policy, seed](const CacheConfig &geometry) {
                CacheConfig config = geometry;
                config.policy = policy;
                config.policy_seed = seed;
                return makeCacheTarget(config);
            }));
    }
    // The battery must keep the implemented policies pairwise
    // distinguishable, or identification below is meaningless.
    for (std::size_t a = 0; a < references.size(); ++a) {
        for (std::size_t b = a + 1; b < references.size(); ++b) {
            if (references[a] == references[b]) {
                failInternal(
                    std::string("inferPolicy: probe battery cannot "
                                "distinguish ") +
                    replacementPolicyName(kAllReplacementPolicies[a]) +
                    " from " +
                    replacementPolicyName(kAllReplacementPolicies[b]));
            }
        }
    }
    for (std::size_t i = 0; i < references.size(); ++i) {
        if (references[i] == result.observed)
            result.matches.push_back(kAllReplacementPolicies[i]);
    }
    return result;
}

} // namespace topo
