/**
 * @file
 * Helpers shared by the unit tests: a private temporary directory per
 * test, and a hash that pins a layout's addresses.
 */

#ifndef TOPO_TESTS_TEST_SUPPORT_HH
#define TOPO_TESTS_TEST_SUPPORT_HH

#include <gtest/gtest.h>
#include <unistd.h>

#include <cctype>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <system_error>

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

/** FNV-1a over a layout's addresses in procedure-id order. */
inline std::uint64_t
layoutHash(const Layout &layout)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (std::size_t i = 0; i < layout.procCount(); ++i) {
        const std::uint64_t address = layout.address(static_cast<ProcId>(i));
        for (int b = 0; b < 8; ++b) {
            h ^= (address >> (8 * b)) & 0xffu;
            h *= 0x100000001b3ULL;
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

} // namespace topo

#endif // TOPO_TESTS_TEST_SUPPORT_HH
