/**
 * @file
 * Unit and property tests for the cache simulators and the layout
 * miss-rate driver.
 */

#include <gtest/gtest.h>

#include "topo/cache/cache_config.hh"
#include "topo/cache/direct_mapped_cache.hh"
#include "topo/cache/set_associative_cache.hh"
#include "topo/cache/simulate.hh"
#include "topo/util/error.hh"
#include "topo/util/rng.hh"

namespace topo
{
namespace
{

TEST(CacheConfig, GeometryAccessors)
{
    const CacheConfig c = CacheConfig::paperDefault();
    c.validate();
    EXPECT_EQ(c.lineCount(), 256u);
    EXPECT_EQ(c.setCount(), 256u);
    EXPECT_EQ(c.describe(), "8KB direct-mapped, 32B lines");
    const CacheConfig two = CacheConfig::paperTwoWay();
    EXPECT_EQ(two.setCount(), 128u);
    EXPECT_NE(two.describe().find("2-way"), std::string::npos);
}

TEST(CacheConfig, ValidationCatchesNonsense)
{
    CacheConfig c{100, 32, 1}; // size not a multiple of line
    EXPECT_THROW(c.validate(), TopoError);
    CacheConfig zero{0, 32, 1};
    EXPECT_THROW(zero.validate(), TopoError);
    CacheConfig assoc{8192, 32, 3}; // 256 lines not divisible by 3
    EXPECT_THROW(assoc.validate(), TopoError);
}

TEST(DirectMapped, HitAfterFill)
{
    DirectMappedCache cache(CacheConfig{128, 32, 1}); // 4 lines
    EXPECT_FALSE(cache.access(0));
    EXPECT_TRUE(cache.access(0));
    EXPECT_FALSE(cache.access(4)); // maps to frame 0, evicts 0
    EXPECT_FALSE(cache.access(0));
}

TEST(DirectMapped, NonPowerOfTwoLineCount)
{
    DirectMappedCache cache(CacheConfig{96, 32, 1}); // 3 lines
    EXPECT_EQ(cache.mapSet(0), 0u);
    EXPECT_EQ(cache.mapSet(3), 0u);
    EXPECT_EQ(cache.mapSet(4), 1u);
    EXPECT_FALSE(cache.access(0));
    EXPECT_TRUE(cache.access(0));
    EXPECT_FALSE(cache.access(3));
    EXPECT_FALSE(cache.access(0));
}

TEST(DirectMapped, ResetInvalidates)
{
    DirectMappedCache cache(CacheConfig{128, 32, 1});
    cache.access(7);
    EXPECT_TRUE(cache.access(7));
    cache.reset();
    EXPECT_FALSE(cache.access(7));
}

TEST(DirectMapped, RejectsAssociativeConfig)
{
    EXPECT_THROW(DirectMappedCache(CacheConfig{128, 32, 2}), TopoError);
}

TEST(SetAssociative, LruEvictionOrder)
{
    // 1 set, 2 ways.
    SetAssociativeCache cache(CacheConfig{64, 32, 2});
    EXPECT_FALSE(cache.access(10));
    EXPECT_FALSE(cache.access(20));
    EXPECT_TRUE(cache.access(10));  // 10 now MRU
    EXPECT_FALSE(cache.access(30)); // evicts 20 (LRU)
    EXPECT_TRUE(cache.access(10));
    EXPECT_FALSE(cache.access(20));
}

TEST(SetAssociative, TwoBlocksCoexistInOneSet)
{
    // The set-associative motivation of Section 6: one intervening
    // block does not evict p in a 2-way set.
    SetAssociativeCache cache(CacheConfig{64, 32, 2});
    cache.access(0);
    for (int i = 0; i < 10; ++i) {
        cache.access(100); // same set, other way
        EXPECT_TRUE(cache.access(0));
    }
}

TEST(SetAssociative, OneWayMatchesDirectMapped)
{
    const CacheConfig config{256, 32, 1};
    DirectMappedCache dm(config);
    SetAssociativeCache sa(config);
    Rng rng(99);
    for (int i = 0; i < 5000; ++i) {
        const std::uint64_t addr = rng.nextBelow(64);
        EXPECT_EQ(dm.access(addr), sa.access(addr)) << "step " << i;
    }
}

/** Full-associativity property: working set <= ways never misses twice. */
TEST(SetAssociative, FullyAssociativeRetainsWorkingSet)
{
    // 4 ways, 1 set.
    SetAssociativeCache cache(CacheConfig{128, 32, 4});
    for (std::uint64_t a = 0; a < 4; ++a)
        cache.access(a);
    Rng rng(5);
    for (int i = 0; i < 1000; ++i)
        EXPECT_TRUE(cache.access(rng.nextBelow(4)));
}

Program
twoProcs()
{
    Program p("sim");
    p.addProcedure("f", 128); // 4 lines
    p.addProcedure("g", 128); // 4 lines
    return p;
}

TEST(Simulate, NoConflictWhenFitsInCache)
{
    const Program p = twoProcs();
    const CacheConfig cache{512, 32, 1}; // 16 lines: both procs fit
    Trace t(2);
    for (int i = 0; i < 100; ++i) {
        t.append(0, 0, 128);
        t.append(1, 0, 128);
    }
    const FetchStream stream(p, t, 32);
    const Layout layout = Layout::defaultOrder(p, 32);
    const SimResult result = simulateLayout(p, layout, stream, cache);
    // Only the 8 cold misses.
    EXPECT_EQ(result.misses, 8u);
    EXPECT_EQ(result.accesses, stream.size());
}

TEST(Simulate, FullConflictWhenOverlapped)
{
    const Program p = twoProcs();
    const CacheConfig cache{128, 32, 1}; // 4 lines: f and g collide
    Trace t(2);
    for (int i = 0; i < 50; ++i) {
        t.append(0, 0, 128);
        t.append(1, 0, 128);
    }
    const FetchStream stream(p, t, 32);
    const Layout layout = Layout::defaultOrder(p, 32);
    const SimResult result = simulateLayout(p, layout, stream, cache);
    // Every access evicts the other procedure's line: all misses.
    EXPECT_EQ(result.misses, result.accesses);
}

TEST(Simulate, AttributionSumsToTotal)
{
    const Program p = twoProcs();
    const CacheConfig cache{128, 32, 1};
    Trace t(2);
    for (int i = 0; i < 20; ++i) {
        t.append(0, 0, 128);
        t.append(1, 0, 128);
    }
    const FetchStream stream(p, t, 32);
    const Layout layout = Layout::defaultOrder(p, 32);
    const SimResult result =
        simulateLayout(p, layout, stream, cache, true);
    ASSERT_EQ(result.misses_by_proc.size(), 2u);
    EXPECT_EQ(result.misses_by_proc[0] + result.misses_by_proc[1],
              result.misses);
}

TEST(Simulate, LineSizeMismatchRejected)
{
    const Program p = twoProcs();
    Trace t(2);
    t.append(0, 0, 128);
    const FetchStream stream(p, t, 16);
    const Layout layout = Layout::defaultOrder(p, 16);
    EXPECT_THROW(
        simulateLayout(p, layout, stream, CacheConfig{8192, 32, 1}),
        TopoError);
}

TEST(Simulate, TwoWayToleratesOneConflicting)
{
    // f and g overlap fully; in a 2-way cache of the same total size
    // alternation does not thrash.
    const Program p = twoProcs();
    Trace t(2);
    for (int i = 0; i < 50; ++i) {
        t.append(0, 0, 128);
        t.append(1, 0, 128);
    }
    const FetchStream stream(p, t, 32);
    const Layout overlap =
        Layout::fromCacheOffsets(p, {0, 1}, {0, 0}, 32, 4);
    const SimResult dm =
        simulateLayout(p, overlap, stream, CacheConfig{128, 32, 1});
    const SimResult sa =
        simulateLayout(p, overlap, stream, CacheConfig{256, 32, 2});
    EXPECT_EQ(dm.misses, dm.accesses);
    EXPECT_EQ(sa.misses, 8u); // cold misses only
}

/** Property sweep: miss rate is within [0,1] for random traffic. */
class SimulatePropertyTest
    : public ::testing::TestWithParam<CacheConfig>
{
};

TEST_P(SimulatePropertyTest, MissRateBounded)
{
    const CacheConfig cache = GetParam();
    Program p("r");
    for (int i = 0; i < 10; ++i)
        p.addProcedure("p" + std::to_string(i), 64 + 32 * i);
    Trace t(p.procCount());
    Rng rng(321);
    for (int i = 0; i < 2000; ++i) {
        const ProcId id = static_cast<ProcId>(rng.nextBelow(10));
        t.append(id, 0, p.proc(id).size_bytes);
    }
    const FetchStream stream(p, t, cache.line_bytes);
    const Layout layout = Layout::defaultOrder(p, cache.line_bytes);
    const SimResult result = simulateLayout(p, layout, stream, cache);
    EXPECT_GT(result.missRate(), 0.0);
    EXPECT_LE(result.missRate(), 1.0);
    EXPECT_EQ(result.accesses, stream.size());
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, SimulatePropertyTest,
    ::testing::Values(CacheConfig{1024, 32, 1}, CacheConfig{2048, 32, 2},
                      CacheConfig{4096, 64, 4}, CacheConfig{96, 32, 1},
                      CacheConfig{8192, 32, 1}));

// ---------------------------------------------------------------------
// Replacement-policy zoo.
// ---------------------------------------------------------------------

CacheConfig
policyConfig(std::uint32_t size_bytes, std::uint32_t assoc,
             ReplacementPolicy policy,
             std::uint64_t seed = kDefaultPolicySeed)
{
    CacheConfig config{size_bytes, 32, assoc};
    config.policy = policy;
    config.policy_seed = seed;
    return config;
}

TEST(PolicyConfig, DescribeNamesNonDefaultPolicies)
{
    // The default (LRU) description must stay byte-identical to the
    // pre-policy era: committed BENCH baselines embed it.
    const CacheConfig lru{8192, 32, 2};
    EXPECT_EQ(lru.describe(), "8KB 2-way set-associative, 32B lines");
    const CacheConfig srrip =
        policyConfig(8192, 2, ReplacementPolicy::kSrrip);
    EXPECT_EQ(srrip.describe(),
              "8KB 2-way set-associative, 32B lines, srrip replacement");
}

TEST(PolicyConfig, ParseRoundTripsAndRejectsUnknown)
{
    for (const ReplacementPolicy policy : kAllReplacementPolicies) {
        EXPECT_EQ(parseReplacementPolicy(replacementPolicyName(policy)),
                  policy);
    }
    EXPECT_THROW(parseReplacementPolicy("mru"), TopoError);
}

TEST(PolicyConfig, PlruRequiresPowerOfTwoWays)
{
    // 12 ways divides 24 lines but is not a PLRU tree shape.
    const CacheConfig bad =
        policyConfig(768, 12, ReplacementPolicy::kPlru);
    EXPECT_THROW(bad.validate(), TopoError);
    const CacheConfig good =
        policyConfig(1024, 8, ReplacementPolicy::kPlru);
    good.validate();
}

TEST(PolicyBehavior, FifoEvictsOldestInsertionDespiteHits)
{
    // 1 set, 2 ways: a hit must not refresh FIFO insertion order.
    PolicyCache<FifoPolicy> cache(
        policyConfig(64, 2, ReplacementPolicy::kFifo));
    EXPECT_FALSE(cache.access(10));
    EXPECT_FALSE(cache.access(20));
    EXPECT_TRUE(cache.access(10));  // hit; 10 stays oldest
    EXPECT_FALSE(cache.access(30)); // evicts 10, not 20
    EXPECT_TRUE(cache.access(20));
    EXPECT_FALSE(cache.access(10));
}

TEST(PolicyBehavior, SrripSecondInsertEvictsFirst)
{
    // 1 set, 4 ways. Promote three residents to RRPV 0; a fresh
    // insert lands at the long-re-reference point (RRPV 2), so the
    // next insert's victim scan reaches it first — SRRIP sacrifices
    // its own most recent insertion where LRU would keep it.
    PolicyCache<SrripPolicy> cache(
        policyConfig(128, 4, ReplacementPolicy::kSrrip));
    for (std::uint64_t a = 0; a < 4; ++a)
        EXPECT_FALSE(cache.access(a));
    for (std::uint64_t a = 0; a < 3; ++a)
        EXPECT_TRUE(cache.access(a));
    EXPECT_FALSE(cache.access(100)); // evicts line 3 (RRPV 2)
    EXPECT_FALSE(cache.access(200)); // evicts line 100, not 0..2
    EXPECT_TRUE(cache.access(0));
    EXPECT_TRUE(cache.access(1));
    EXPECT_TRUE(cache.access(2));
    EXPECT_FALSE(cache.access(100)); // was sacrificed for 200
}

TEST(PolicyBehavior, PlruProtectsMostRecentTouch)
{
    PolicyCache<TreePlruPolicy> cache(
        policyConfig(128, 4, ReplacementPolicy::kPlru));
    for (std::uint64_t a = 0; a < 4; ++a)
        EXPECT_FALSE(cache.access(a));
    EXPECT_TRUE(cache.access(2));   // tree now points away from way 2
    EXPECT_FALSE(cache.access(50)); // victim is on the other subtree
    EXPECT_TRUE(cache.access(2));
    EXPECT_TRUE(cache.access(50));
}

TEST(PolicyBehavior, RandomIsSeedDeterministic)
{
    const CacheConfig config =
        policyConfig(512, 4, ReplacementPolicy::kRandom, 1234);
    PolicyCache<RandomPolicy> a(config);
    PolicyCache<RandomPolicy> b(config);
    CacheConfig other = config;
    other.policy_seed = 99;
    PolicyCache<RandomPolicy> c(other);
    Rng rng(42);
    std::uint64_t disagreements = 0;
    for (int i = 0; i < 5000; ++i) {
        const std::uint64_t addr = rng.nextBelow(64);
        const bool hit = a.access(addr);
        EXPECT_EQ(hit, b.access(addr)) << "step " << i;
        disagreements +=
            static_cast<std::uint64_t>(hit != c.access(addr));
    }
    // A different seed draws different victims; the exact count is
    // deterministic, so assert only that the seed matters at all.
    EXPECT_GT(disagreements, 0u);
}

TEST(PolicyBehavior, RandomResetReseeds)
{
    // After reset(), the RNG cursor restarts: the same access stream
    // must reproduce the same hit/miss bits.
    PolicyCache<RandomPolicy> cache(
        policyConfig(128, 4, ReplacementPolicy::kRandom));
    Rng rng(17);
    std::vector<std::uint64_t> stream;
    for (int i = 0; i < 800; ++i)
        stream.push_back(rng.nextBelow(16));
    std::vector<bool> first;
    for (const std::uint64_t addr : stream)
        first.push_back(cache.access(addr));
    cache.reset();
    for (std::size_t i = 0; i < stream.size(); ++i)
        EXPECT_EQ(cache.access(stream[i]), first[i]) << "step " << i;
}

/** 1-way instances of every policy must equal DirectMappedCache. */
template <typename Policy>
void
expectOneWayMatchesDirectMapped(ReplacementPolicy policy)
{
    const CacheConfig config = policyConfig(256, 1, policy);
    DirectMappedCache dm(config);
    PolicyCache<Policy> pc(config);
    Rng rng(99);
    for (int i = 0; i < 5000; ++i) {
        const std::uint64_t addr = rng.nextBelow(64);
        ASSERT_EQ(dm.access(addr), pc.access(addr))
            << replacementPolicyName(policy) << " step " << i;
    }
}

TEST(PolicyBehavior, OneWayCollapsesToDirectMappedForEveryPolicy)
{
    expectOneWayMatchesDirectMapped<TrueLruPolicy>(
        ReplacementPolicy::kLru);
    expectOneWayMatchesDirectMapped<TreePlruPolicy>(
        ReplacementPolicy::kPlru);
    expectOneWayMatchesDirectMapped<SrripPolicy>(
        ReplacementPolicy::kSrrip);
    expectOneWayMatchesDirectMapped<FifoPolicy>(
        ReplacementPolicy::kFifo);
    expectOneWayMatchesDirectMapped<RandomPolicy>(
        ReplacementPolicy::kRandom);
}

/**
 * Batched replay (accessRunBatch, including any repeat-elision
 * shortcut) must be bit-identical to the fully expanded access()
 * stream: same miss count, identical behaviour on a follow-up stream,
 * and — when @p exact_state — identical raw state words. The state
 * check is skipped only for true LRU, whose elided repeats advance
 * the recency clocks by smaller absolute amounts while preserving the
 * per-set ordering that victim selection consults (the follow-up
 * stream verifies that equivalence behaviourally).
 */
template <typename Cache>
void
expectBatchMatchesExpanded(const CacheConfig &config,
                           const std::string &what,
                           bool exact_state = true)
{
    SCOPED_TRACE(what);
    struct Run
    {
        std::uint64_t base;
        std::uint32_t len;
        std::uint32_t repeats;
    };
    // Mixed run shapes: short loops under the elision threshold with
    // high repeat counts, runs longer than the cache, single fetches.
    Rng rng(2024);
    std::vector<Run> runs;
    const std::uint64_t lines = config.lineCount();
    for (int i = 0; i < 200; ++i) {
        Run run;
        run.base = rng.nextBelow(4 * lines);
        run.len = static_cast<std::uint32_t>(
            1 + rng.nextBelow(2 * lines));
        run.repeats = static_cast<std::uint32_t>(1 + rng.nextBelow(5));
        runs.push_back(run);
    }

    Cache batched(config);
    Cache expanded(config);
    const std::uint64_t batched_misses = batched.accessRunBatch(
        runs.size(), [&runs](std::size_t r) {
            return std::tuple<std::uint64_t, std::uint32_t,
                              std::uint32_t>(
                runs[r].base, runs[r].len, runs[r].repeats);
        });
    std::uint64_t expanded_misses = 0;
    for (const Run &run : runs) {
        for (std::uint32_t pass = 0; pass < run.repeats; ++pass) {
            for (std::uint32_t j = 0; j < run.len; ++j) {
                expanded_misses += static_cast<std::uint64_t>(
                    !expanded.access(run.base + j));
            }
        }
    }
    EXPECT_EQ(batched_misses, expanded_misses);
    if (exact_state) {
        EXPECT_EQ(std::vector<std::uint64_t>(batched.stateWords()),
                  std::vector<std::uint64_t>(expanded.stateWords()));
    }
    for (int i = 0; i < 2000; ++i) {
        const std::uint64_t addr = rng.nextBelow(4 * lines);
        ASSERT_EQ(batched.access(addr), expanded.access(addr))
            << "follow-up step " << i;
    }
}

TEST(PolicyBatch, BatchedEqualsExpandedForEveryPolicyAndModel)
{
    for (const std::uint32_t assoc : {2u, 4u, 8u}) {
        const std::string where = std::to_string(assoc) + "-way";
        expectBatchMatchesExpanded<PolicyCache<TrueLruPolicy>>(
            policyConfig(512, assoc, ReplacementPolicy::kLru),
            "lru " + where, false);
        expectBatchMatchesExpanded<PolicyCache<TreePlruPolicy>>(
            policyConfig(512, assoc, ReplacementPolicy::kPlru),
            "plru " + where);
        expectBatchMatchesExpanded<PolicyCache<SrripPolicy>>(
            policyConfig(512, assoc, ReplacementPolicy::kSrrip),
            "srrip " + where);
        expectBatchMatchesExpanded<PolicyCache<FifoPolicy>>(
            policyConfig(512, assoc, ReplacementPolicy::kFifo),
            "fifo " + where);
        expectBatchMatchesExpanded<PolicyCache<RandomPolicy>>(
            policyConfig(512, assoc, ReplacementPolicy::kRandom),
            "random " + where);
    }
    // Fully associative (single set) and the direct-mapped model's own
    // unconditional elision.
    expectBatchMatchesExpanded<PolicyCache<TrueLruPolicy>>(
        policyConfig(256, 8, ReplacementPolicy::kLru), "lru 1x8",
        false);
    expectBatchMatchesExpanded<PolicyCache<SrripPolicy>>(
        policyConfig(256, 8, ReplacementPolicy::kSrrip), "srrip 1x8");
    expectBatchMatchesExpanded<DirectMappedCache>(
        CacheConfig{512, 32, 1}, "direct-mapped");
    expectBatchMatchesExpanded<DirectMappedCache>(
        CacheConfig{96, 32, 1}, "direct-mapped non-pow2");
}

/**
 * Eviction accounting: with invalid-first fills, every policy obeys
 * "misses - validLineCount() == evictions", and the victims access()
 * reports through its AccessEffect are exactly those evictions.
 */
template <typename Cache>
void
expectEvictionAccounting(const CacheConfig &config,
                         const std::string &what)
{
    SCOPED_TRACE(what);
    Cache cache(config);
    Rng rng(7);
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    for (int i = 0; i < 4000; ++i) {
        AccessEffect effect;
        const std::uint64_t addr = rng.nextBelow(8 * config.lineCount());
        if (!cache.access(addr, &effect)) {
            ++misses;
            evictions += static_cast<std::uint64_t>(effect.victim !=
                                                    kInvalidLineAddr);
        } else {
            ASSERT_EQ(effect.victim, kInvalidLineAddr);
        }
        ASSERT_LT(effect.set, config.setCount());
    }
    EXPECT_EQ(misses - cache.validLineCount(), evictions);
    EXPECT_LE(cache.validLineCount(), config.lineCount());
}

TEST(PolicyAccounting, MissesMinusValidLinesEqualsEvictions)
{
    expectEvictionAccounting<PolicyCache<TrueLruPolicy>>(
        policyConfig(512, 4, ReplacementPolicy::kLru), "lru");
    expectEvictionAccounting<PolicyCache<TreePlruPolicy>>(
        policyConfig(512, 4, ReplacementPolicy::kPlru), "plru");
    expectEvictionAccounting<PolicyCache<SrripPolicy>>(
        policyConfig(512, 4, ReplacementPolicy::kSrrip), "srrip");
    expectEvictionAccounting<PolicyCache<FifoPolicy>>(
        policyConfig(512, 4, ReplacementPolicy::kFifo), "fifo");
    expectEvictionAccounting<PolicyCache<RandomPolicy>>(
        policyConfig(512, 4, ReplacementPolicy::kRandom), "random");
    expectEvictionAccounting<DirectMappedCache>(
        CacheConfig{512, 32, 1}, "direct-mapped");
}

TEST(PolicySimulate, AllPoliciesProduceSaneMissCounts)
{
    // End-to-end through simulateLayout: every policy at 4 ways on the
    // same workload; all see the same compulsory floor, and LRU must
    // retain the alternating working set that thrashes direct-mapped.
    const Program p = twoProcs();
    Trace t(2);
    for (int i = 0; i < 50; ++i) {
        t.append(0, 0, 128);
        t.append(1, 0, 128);
    }
    const FetchStream stream(p, t, 32);
    const Layout overlap =
        Layout::fromCacheOffsets(p, {0, 1}, {0, 0}, 32, 4);
    for (const ReplacementPolicy policy : kAllReplacementPolicies) {
        SCOPED_TRACE(replacementPolicyName(policy));
        const CacheConfig config = policyConfig(256, 8, policy);
        const SimResult result =
            simulateLayout(p, overlap, stream, config);
        EXPECT_EQ(result.accesses, stream.size());
        EXPECT_GE(result.misses, 8u); // compulsory floor
        EXPECT_EQ(result.evictions,
                  result.misses - std::min<std::uint64_t>(
                                      result.misses, 8u));
        if (policy == ReplacementPolicy::kLru) {
            EXPECT_EQ(result.misses, 8u); // working set fits 8 ways
        }
    }
}

// ---------------------------------------------------------------------
// Invalid-line-address sentinel.
// ---------------------------------------------------------------------

TEST(Sentinel, CachesRejectReservedLineAddress)
{
    DirectMappedCache dm(CacheConfig{128, 32, 1});
    EXPECT_THROW(dm.access(kInvalidLineAddr), TopoError);
    AccessEffect effect;
    EXPECT_THROW(dm.access(kInvalidLineAddr, &effect), TopoError);

    SetAssociativeCache sa(CacheConfig{128, 32, 4});
    EXPECT_THROW(sa.access(kInvalidLineAddr), TopoError);
    EXPECT_THROW(sa.access(kInvalidLineAddr, &effect), TopoError);
    // The guard must not perturb normal accounting.
    EXPECT_FALSE(sa.access(3));
    EXPECT_TRUE(sa.access(3));
}

TEST(Sentinel, LayoutValidateRejectsTopOfAddressSpace)
{
    // With 1-byte lines, a procedure ending at byte 2^64-1 would fetch
    // the reserved line address and alias every empty frame.
    Program p("edge");
    p.addProcedure("f", 64);
    Layout layout(1);
    layout.setAddress(0, ~std::uint64_t{0} - 63);
    EXPECT_THROW(layout.validate(p, 1), TopoError);
    // One byte lower is fine.
    Layout ok(1);
    ok.setAddress(0, ~std::uint64_t{0} - 64);
    ok.validate(p, 1);
}

} // namespace
} // namespace topo
