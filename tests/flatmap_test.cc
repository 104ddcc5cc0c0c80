/**
 * @file
 * Tests for util::FlatMap (open addressing, filter-rebuild pruning),
 * checked against std::map as the reference implementation.
 */

#include <cstdint>
#include <map>
#include <random>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "topo/util/flat_map.hh"

namespace topo
{
namespace
{

using util::FlatMap;
using util::mixKey;

TEST(FlatMap, StartsEmpty)
{
    FlatMap<std::uint64_t, std::uint64_t> map;
    EXPECT_TRUE(map.empty());
    EXPECT_EQ(map.size(), 0u);
    EXPECT_EQ(map.capacity(), 0u);
    EXPECT_FALSE(map.contains(0));
    EXPECT_EQ(map.find(0), nullptr);
    EXPECT_EQ(map.get(0, 42), 42u);
}

TEST(FlatMap, InsertOverwriteAndLookup)
{
    FlatMap<std::uint64_t, std::uint64_t> map;
    map[7] = 70;
    map[9] = 90;
    EXPECT_EQ(map.size(), 2u);
    EXPECT_EQ(map.get(7), 70u);
    EXPECT_EQ(map.get(9), 90u);

    map[7] = 71; // overwrite, not a second entry
    EXPECT_EQ(map.size(), 2u);
    EXPECT_EQ(map.get(7), 71u);

    map[11] += 5; // operator[] value-initialises absent entries
    EXPECT_EQ(map.get(11), 5u);
    EXPECT_TRUE(map.contains(11));
    EXPECT_FALSE(map.contains(12));
}

TEST(FlatMap, MutableFindUpdatesInPlace)
{
    FlatMap<std::uint32_t, std::uint32_t> map;
    map[3] = 1;
    std::uint32_t *v = map.find(3);
    ASSERT_NE(v, nullptr);
    *v += 9;
    EXPECT_EQ(map.get(3), 10u);
    EXPECT_EQ(map.find(4), nullptr); // find never inserts
    EXPECT_EQ(map.size(), 1u);
}

TEST(FlatMap, MatchesStdMapUnderRandomWorkload)
{
    // Reference check: identical insert-or-add sequence applied to the
    // flat map and to std::map must yield the same final contents.
    // Keys are drawn from a small range so the run exercises plenty of
    // overwrites, and the map grows through several rehashes.
    FlatMap<std::uint64_t, std::uint64_t> map;
    std::map<std::uint64_t, std::uint64_t> ref;
    std::mt19937_64 rng(20260806);
    for (int i = 0; i < 20000; ++i) {
        const std::uint64_t key = rng() % 4096;
        const std::uint64_t add = rng() % 1000;
        map[key] += add;
        ref[key] += add;
    }
    ASSERT_EQ(map.size(), ref.size());
    std::size_t visited = 0;
    map.forEach([&](std::uint64_t key, std::uint64_t value) {
        ++visited;
        auto it = ref.find(key);
        ASSERT_NE(it, ref.end());
        EXPECT_EQ(value, it->second);
    });
    EXPECT_EQ(visited, ref.size());
    for (const auto &[key, value] : ref)
        EXPECT_EQ(map.get(key), value);
}

TEST(FlatMap, SurvivesCollidingKeys)
{
    // Keys a fixed stride apart defeat a map that indexes by raw key
    // bits; the splitmix64 finalizer must still spread them. Also a
    // probe-chain stress: even if some cluster, linear probing has to
    // find every entry back.
    FlatMap<std::uint64_t, std::uint64_t> map;
    constexpr std::uint64_t kStride = 1u << 20;
    for (std::uint64_t i = 0; i < 3000; ++i)
        map[i * kStride] = i;
    EXPECT_EQ(map.size(), 3000u);
    for (std::uint64_t i = 0; i < 3000; ++i)
        EXPECT_EQ(map.get(i * kStride), i);
    EXPECT_FALSE(map.contains(3000 * kStride));
}

TEST(FlatMap, ReserveAvoidsRehash)
{
    FlatMap<std::uint64_t, std::uint64_t> map;
    map.reserve(1000);
    const std::size_t cap = map.capacity();
    EXPECT_GE(cap * 7 / 10, 1000u); // load stays <= 0.7 after the fill
    for (std::uint64_t i = 0; i < 1000; ++i)
        map[i] = i;
    EXPECT_EQ(map.capacity(), cap);
}

TEST(FlatMap, FilterRebuildsWithoutTombstones)
{
    FlatMap<std::uint64_t, std::uint64_t> map;
    for (std::uint64_t i = 0; i < 500; ++i)
        map[i] = i;
    map.filter([](std::uint64_t key, std::uint64_t) {
        return key % 2 == 0;
    });
    EXPECT_EQ(map.size(), 250u);
    for (std::uint64_t i = 0; i < 500; ++i) {
        if (i % 2 == 0)
            EXPECT_EQ(map.get(i), i);
        else
            EXPECT_FALSE(map.contains(i));
    }
    // The rebuilt table is a fresh map: surviving entries remain
    // findable through unbroken probe chains after more inserts.
    for (std::uint64_t i = 1000; i < 1100; ++i)
        map[i] = i;
    EXPECT_EQ(map.size(), 350u);
    EXPECT_EQ(map.get(498), 498u);
    EXPECT_EQ(map.get(1099), 1099u);
}

TEST(FlatMap, ClearKeepsCapacity)
{
    FlatMap<std::uint64_t, std::uint64_t> map;
    for (std::uint64_t i = 0; i < 100; ++i)
        map[i] = i;
    const std::size_t cap = map.capacity();
    map.clear();
    EXPECT_TRUE(map.empty());
    EXPECT_EQ(map.capacity(), cap);
    EXPECT_FALSE(map.contains(5));
    map[5] = 55;
    EXPECT_EQ(map.get(5), 55u);
    EXPECT_EQ(map.size(), 1u);
}

TEST(FlatMap, IterationOrderIsDeterministic)
{
    // Two maps built by the same insertion sequence must iterate in
    // the same slot order — this is what lets callers sort once and
    // rely on run-to-run reproducibility (determinism contract).
    auto build = [] {
        FlatMap<std::uint64_t, std::uint64_t> map;
        std::mt19937_64 rng(7);
        for (int i = 0; i < 5000; ++i)
            map[rng() % 2048] += 1;
        return map;
    };
    const auto a = build();
    const auto b = build();
    std::vector<std::pair<std::uint64_t, std::uint64_t>> order_a;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> order_b;
    a.forEach([&](std::uint64_t k, std::uint64_t v) {
        order_a.emplace_back(k, v);
    });
    b.forEach([&](std::uint64_t k, std::uint64_t v) {
        order_b.emplace_back(k, v);
    });
    EXPECT_EQ(order_a, order_b);
}

TEST(FlatMap, PackedPairKeysDoNotAlias)
{
    // The pair database packs (a, b) as (a << 32) | b; swapped pairs
    // and same-word neighbours must stay distinct entries.
    FlatMap<std::uint64_t, std::uint64_t> map;
    auto pack = [](std::uint32_t a, std::uint32_t b) {
        return (static_cast<std::uint64_t>(a) << 32) | b;
    };
    map[pack(1, 2)] = 12;
    map[pack(2, 1)] = 21;
    map[pack(0, 1)] = 1;
    map[pack(1, 0)] = 10;
    EXPECT_EQ(map.size(), 4u);
    EXPECT_EQ(map.get(pack(1, 2)), 12u);
    EXPECT_EQ(map.get(pack(2, 1)), 21u);
    EXPECT_EQ(map.get(pack(0, 1)), 1u);
    EXPECT_EQ(map.get(pack(1, 0)), 10u);
}

TEST(FlatMap, MixKeyAvalanches)
{
    // Sanity-check the finalizer: single-bit input changes flip the
    // low bits used for slot selection often enough that sequential
    // keys do not collapse onto one probe chain.
    std::map<std::uint64_t, int> low_bits;
    for (std::uint64_t i = 0; i < 1024; ++i)
        ++low_bits[mixKey(i) & 1023];
    // With 1024 keys into 1024 buckets a catastrophic mix would pile
    // everything onto a few slots; splitmix64 behaves like random
    // (max bucket ~8 with overwhelming probability).
    int worst = 0;
    for (const auto &[slot, count] : low_bits)
        worst = std::max(worst, count);
    EXPECT_LE(worst, 16);
}

} // namespace
} // namespace topo
