/**
 * @file
 * Helpers shared by the unit tests: a private temporary directory per
 * test, hashes that pin a layout's addresses, a graph's edges and a
 * decision log's records, and golden-row checks that print the
 * measured row on a mismatch.
 */

#ifndef TOPO_TESTS_TEST_SUPPORT_HH
#define TOPO_TESTS_TEST_SUPPORT_HH

#include <gtest/gtest.h>
#include <unistd.h>

#include <bit>
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <system_error>

#include "topo/placement/decision_log.hh"
#include "topo/profile/weighted_graph.hh"
#include "topo/program/layout.hh"

namespace topo
{

/**
 * A directory only the running test uses, named from the test's suite,
 * name and process id, so tests running in parallel processes (ctest
 * -j) or from two checkouts never share a file. Removed when the test
 * passed; kept for inspection when it failed.
 */
class TestTempDir
{
  public:
    TestTempDir()
    {
        const ::testing::TestInfo *info =
            ::testing::UnitTest::GetInstance()->current_test_info();
        std::string name = std::string(info->test_suite_name()) + "." +
                           info->name();
        for (char &c : name) {
            if (!std::isalnum(static_cast<unsigned char>(c)) && c != '.')
                c = '_';
        }
        path_ = std::filesystem::temp_directory_path() /
                ("topo_" + name + "_" + std::to_string(::getpid()));
        std::filesystem::remove_all(path_);
        std::filesystem::create_directories(path_);
    }

    ~TestTempDir()
    {
        if (!::testing::Test::HasFailure()) {
            std::error_code ignored;
            std::filesystem::remove_all(path_, ignored);
        }
    }

    TestTempDir(const TestTempDir &) = delete;
    TestTempDir &operator=(const TestTempDir &) = delete;

    /** Path of the entry @p name inside the directory. */
    std::string
    file(const std::string &name) const
    {
        return (path_ / name).string();
    }

  private:
    std::filesystem::path path_;
};

/** FNV-1a offset basis: the hash of nothing. */
inline constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

/** Fold the low @p bytes bytes of @p word into FNV-1a hash @p h. */
inline void
fnvMix(std::uint64_t &h, std::uint64_t word, int bytes)
{
    for (int b = 0; b < bytes; ++b) {
        h ^= (word >> (8 * b)) & 0xffu;
        h *= 0x100000001b3ULL;
    }
}

/** FNV-1a over a layout's addresses in procedure-id order. */
inline std::uint64_t
layoutHash(const Layout &layout)
{
    std::uint64_t h = kFnvBasis;
    for (std::size_t i = 0; i < layout.procCount(); ++i)
        fnvMix(h, layout.address(static_cast<ProcId>(i)), 8);
    return h;
}

/** FNV-1a over the sorted (u, v, weight bits) edge list of a graph. */
inline std::uint64_t
edgeHash(const WeightedGraph &graph)
{
    std::uint64_t h = kFnvBasis;
    for (const WeightedGraph::Edge &e : graph.edges()) {
        fnvMix(h, e.u, 4);
        fnvMix(h, e.v, 4);
        fnvMix(h, std::bit_cast<std::uint64_t>(e.weight), 8);
    }
    return h;
}

/**
 * FNV-1a over every @p stage record of a decision log: the procedure
 * pair, the chosen option, and the bits of the chosen and runner-up
 * costs. The number of such records goes to @p records.
 */
inline std::uint64_t
decisionDigest(const DecisionLog &log, const std::string &stage,
               std::uint64_t *records)
{
    std::uint64_t h = kFnvBasis;
    *records = 0;
    for (const DecisionRecord &rec : log.records()) {
        if (rec.stage != stage)
            continue;
        ++*records;
        fnvMix(h, rec.a, 4);
        fnvMix(h, rec.b, 4);
        fnvMix(h, rec.chosen, 8);
        fnvMix(h, std::bit_cast<std::uint64_t>(rec.chosen_cost), 8);
        fnvMix(h, rec.alternative_count, 4);
        for (std::uint32_t k = 0; k < rec.alternative_count; ++k) {
            fnvMix(h, rec.alternatives[k].choice, 8);
            fnvMix(h, std::bit_cast<std::uint64_t>(
                          rec.alternatives[k].cost),
                   8);
        }
    }
    return h;
}

/** Golden layout hash and miss count of one placement. */
struct LayoutGolden
{
    std::uint64_t hash;
    std::uint64_t misses;
};

/** Goldens of default, PH, HKC and GBSC (in that order) on one case. */
struct PlacementGolden
{
    const char *name;
    LayoutGolden algorithms[4];
};

/**
 * Compare four measured placements with their goldens; on a mismatch
 * the failure carries the measured row in the table's own syntax.
 */
inline void
expectGolden(const PlacementGolden &want, const LayoutGolden (&got)[4])
{
    std::string row = std::string("{\"") + want.name + "\", {";
    for (std::size_t a = 0; a < 4; ++a) {
        char cell[64];
        std::snprintf(cell, sizeof cell, "{0x%016llxULL, %llu}%s",
                      static_cast<unsigned long long>(got[a].hash),
                      static_cast<unsigned long long>(got[a].misses),
                      a + 1 < 4 ? ", " : "}},");
        row += cell;
    }
    SCOPED_TRACE("measured row: " + row);
    for (std::size_t a = 0; a < 4; ++a) {
        EXPECT_EQ(got[a].hash, want.algorithms[a].hash) << "algorithm " << a;
        EXPECT_EQ(got[a].misses, want.algorithms[a].misses)
            << "algorithm " << a;
    }
}

/** Golden words (counts, hashes, double bits) of one named case. */
template <std::size_t N>
struct WordGolden
{
    const char *name;
    std::uint64_t words[N];
};

/**
 * Compare measured words with their golden row; on a mismatch the
 * failure carries the measured row in the table's own syntax.
 */
template <std::size_t N>
void
expectGolden(const WordGolden<N> &want, const std::uint64_t (&got)[N])
{
    std::string row = std::string("{\"") + want.name + "\", {";
    for (std::size_t i = 0; i < N; ++i) {
        char cell[32];
        std::snprintf(cell, sizeof cell, "0x%016llxULL%s",
                      static_cast<unsigned long long>(got[i]),
                      i + 1 < N ? ", " : "}},");
        row += cell;
    }
    SCOPED_TRACE("measured row: " + row);
    for (std::size_t i = 0; i < N; ++i)
        EXPECT_EQ(got[i], want.words[i]) << "word " << i;
}

} // namespace topo

#endif // TOPO_TESTS_TEST_SUPPORT_HH
