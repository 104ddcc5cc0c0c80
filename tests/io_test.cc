/**
 * @file
 * Round-trip and error-handling tests for the interchange formats:
 * program descriptions and layouts (the CLI tool formats).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "topo/program/layout_io.hh"
#include "topo/program/program_io.hh"
#include "topo/util/error.hh"
#include "test_support.hh"

namespace topo
{
namespace
{

Program
sampleProgram()
{
    Program p("sample");
    p.addProcedure("main", 400);
    p.addProcedure("helper", 96);
    p.addProcedure("big_one", 10000);
    return p;
}

TEST(ProgramIo, RoundTrip)
{
    const Program p = sampleProgram();
    std::stringstream ss;
    writeProgram(ss, p);
    const Program back = readProgram(ss, "back");
    ASSERT_EQ(back.procCount(), p.procCount());
    for (ProcId i = 0; i < p.procCount(); ++i) {
        EXPECT_EQ(back.proc(i).name, p.proc(i).name);
        EXPECT_EQ(back.proc(i).size_bytes, p.proc(i).size_bytes);
    }
    EXPECT_EQ(back.totalSize(), p.totalSize());
}

TEST(ProgramIo, CommentsAndBlanksIgnored)
{
    std::stringstream ss("topo-program v1\n# hi\n\nf 100\n");
    const Program p = readProgram(ss);
    EXPECT_EQ(p.procCount(), 1u);
    EXPECT_EQ(p.findProc("f"), 0u);
}

TEST(ProgramIo, RejectsMalformedInput)
{
    {
        std::stringstream ss("not-a-program\n");
        EXPECT_THROW(readProgram(ss), TopoError);
    }
    {
        std::stringstream ss("topo-program v1\nf\n");
        EXPECT_THROW(readProgram(ss), TopoError); // missing size
    }
    {
        std::stringstream ss("topo-program v1\nf 0\n");
        EXPECT_THROW(readProgram(ss), TopoError); // zero size
    }
    {
        std::stringstream ss("topo-program v1\nf 10\nf 20\n");
        EXPECT_THROW(readProgram(ss), TopoError); // duplicate
    }
}

TEST(ProgramIo, FileRoundTrip)
{
    const Program p = sampleProgram();
    const TestTempDir tmp;
    const std::string path = tmp.file("program_io_test.prog");
    saveProgram(path, p);
    const Program back = loadProgram(path);
    EXPECT_EQ(back.procCount(), p.procCount());
    std::remove(path.c_str());
    EXPECT_THROW(loadProgram("/nonexistent/nope.prog"), TopoError);
}

TEST(LayoutIo, RoundTrip)
{
    const Program p = sampleProgram();
    const Layout layout =
        Layout::fromCacheOffsets(p, {2, 0, 1}, {5, 0, 3}, 32, 8);
    std::stringstream ss;
    writeLayout(ss, p, layout);
    const Layout back = readLayout(ss, p);
    for (ProcId i = 0; i < p.procCount(); ++i)
        EXPECT_EQ(back.address(i), layout.address(i));
}

TEST(LayoutIo, V2RoundTripCarriesProvenance)
{
    const Program p = sampleProgram();
    const Layout layout =
        Layout::fromCacheOffsets(p, {2, 0, 1}, {5, 0, 3}, 32, 8);
    LayoutProvenance prov;
    prov.algorithm = "gbsc";
    prov.cache = "8KB direct-mapped, 32B lines";
    prov.git_sha = "0123abcd";
    prov.seed = "42";
    std::stringstream ss;
    writeLayout(ss, p, layout, prov);
    EXPECT_EQ(ss.str().substr(0, 14), "topo-layout v2");
    LayoutProvenance back_prov;
    const Layout back = readLayout(ss, p, &back_prov);
    for (ProcId i = 0; i < p.procCount(); ++i)
        EXPECT_EQ(back.address(i), layout.address(i));
    EXPECT_EQ(back_prov.algorithm, prov.algorithm);
    EXPECT_EQ(back_prov.cache, prov.cache);
    EXPECT_EQ(back_prov.git_sha, prov.git_sha);
    EXPECT_EQ(back_prov.seed, prov.seed);
    EXPECT_FALSE(back_prov.empty());
    EXPECT_EQ(back_prov.describe(),
              "algorithm=gbsc cache=8KB direct-mapped, 32B lines "
              "sha=0123abcd seed=42");
}

TEST(LayoutIo, V2OmitsEmptyFieldsAndV1StillReads)
{
    const Program p = sampleProgram();
    const Layout layout =
        Layout::fromCacheOffsets(p, {0, 1, 2}, {0, 0, 0}, 32, 8);
    // Partially-filled provenance: unset keys must not be written.
    LayoutProvenance prov;
    prov.algorithm = "ph";
    std::stringstream ss;
    writeLayout(ss, p, layout, prov);
    EXPECT_EQ(ss.str().find("!cache"), std::string::npos);
    EXPECT_EQ(ss.str().find("!seed"), std::string::npos);
    LayoutProvenance back_prov;
    readLayout(ss, p, &back_prov);
    EXPECT_EQ(back_prov.algorithm, "ph");
    EXPECT_TRUE(back_prov.cache.empty());

    // A v1 file keeps reading, and parses to empty provenance.
    std::stringstream v1;
    writeLayout(v1, p, layout);
    EXPECT_EQ(v1.str().substr(0, 14), "topo-layout v1");
    LayoutProvenance none;
    none.algorithm = "stale"; // must be overwritten
    const Layout back = readLayout(v1, p, &none);
    EXPECT_TRUE(none.empty());
    for (ProcId i = 0; i < p.procCount(); ++i)
        EXPECT_EQ(back.address(i), layout.address(i));
}

TEST(LayoutIo, V2RejectsUnknownKeysAndV1RejectsMetadata)
{
    const Program p = sampleProgram();
    {
        // Unknown metadata key: corrupt, not silently dropped.
        std::stringstream ss("topo-layout v2\n!flavor vanilla\n");
        try {
            readLayout(ss, p);
            FAIL() << "unknown key accepted";
        } catch (const TopoError &err) {
            EXPECT_EQ(err.code(), ErrCode::kCorrupt);
        }
    }
    {
        // Metadata line in a v1 file: corrupt.
        std::stringstream ss(
            "topo-layout v1\n!algorithm gbsc\nmain 0\n");
        EXPECT_THROW(readLayout(ss, p), TopoError);
    }
}

TEST(LayoutIo, FileRoundTripWithProvenance)
{
    const Program p = sampleProgram();
    const Layout layout =
        Layout::fromCacheOffsets(p, {0, 1, 2}, {0, 0, 0}, 32, 8);
    LayoutProvenance prov;
    prov.algorithm = "hkc";
    prov.git_sha = "feedbead";
    const TestTempDir tmp;
    const std::string path = tmp.file("layout_io_v2_test.layout");
    saveLayout(path, p, layout, prov);
    LayoutProvenance back_prov;
    const Layout back = loadLayout(path, p, &back_prov);
    std::remove(path.c_str());
    EXPECT_EQ(back_prov.algorithm, "hkc");
    EXPECT_EQ(back_prov.git_sha, "feedbead");
    for (ProcId i = 0; i < p.procCount(); ++i)
        EXPECT_EQ(back.address(i), layout.address(i));
}

TEST(LayoutIo, RejectsBadInput)
{
    const Program p = sampleProgram();
    {
        std::stringstream ss("nope\n");
        EXPECT_THROW(readLayout(ss, p), TopoError);
    }
    {
        // Unknown procedure.
        std::stringstream ss("topo-layout v1\nmystery 0\n");
        EXPECT_THROW(readLayout(ss, p), TopoError);
    }
    {
        // Duplicate procedure.
        std::stringstream ss(
            "topo-layout v1\nmain 0\nmain 512\nhelper 1024\n"
            "big_one 2048\n");
        EXPECT_THROW(readLayout(ss, p), TopoError);
    }
    {
        // Incomplete layout.
        std::stringstream ss("topo-layout v1\nmain 0\n");
        EXPECT_THROW(readLayout(ss, p), TopoError);
    }
}

TEST(ProgramIo, MalformedInputCarriesTheCorruptCode)
{
    // Damaged interchange files must map to exit code 2, not a generic
    // failure: the CLI layer relies on the code to tell "your file is
    // broken" apart from "you passed the wrong flags".
    std::stringstream ss("not-a-program\n");
    try {
        readProgram(ss);
        FAIL() << "expected a TopoError";
    } catch (const TopoError &err) {
        EXPECT_EQ(err.code(), ErrCode::kCorrupt);
        EXPECT_EQ(err.exitCode(), 2);
    }
}

TEST(LayoutIo, MalformedInputCarriesTheCorruptCode)
{
    const Program p = sampleProgram();
    std::stringstream ss("topo-layout v1\nmystery 0\n");
    try {
        readLayout(ss, p);
        FAIL() << "expected a TopoError";
    } catch (const TopoError &err) {
        EXPECT_EQ(err.code(), ErrCode::kCorrupt);
    }
}

TEST(LayoutIo, PreservesGaps)
{
    const Program p = sampleProgram();
    Layout layout(p.procCount());
    layout.setAddress(0, 0);
    layout.setAddress(1, 4096); // large deliberate gap
    layout.setAddress(2, 65536);
    std::stringstream ss;
    writeLayout(ss, p, layout);
    const Layout back = readLayout(ss, p);
    EXPECT_EQ(back.address(1), 4096u);
    EXPECT_EQ(back.address(2), 65536u);
}

} // namespace
} // namespace topo
