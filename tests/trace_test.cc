/**
 * @file
 * Unit tests for Trace, FetchStream, trace IO, and trace statistics.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "topo/program/program.hh"
#include "topo/trace/fetch_stream.hh"
#include "topo/trace/trace.hh"
#include "topo/trace/trace_io.hh"
#include "topo/trace/trace_stats.hh"
#include "topo/util/error.hh"

namespace topo
{
namespace
{

Program
makeProgram()
{
    Program p("t");
    p.addProcedure("f", 100);
    p.addProcedure("g", 64);
    return p;
}

TEST(Trace, AppendAndValidate)
{
    const Program p = makeProgram();
    Trace t(p.procCount());
    t.append(0, 0, 100);
    t.append(1, 32, 32);
    EXPECT_EQ(t.size(), 2u);
    t.validate(p);
}

TEST(Trace, RejectsBadRuns)
{
    Trace t(2);
    EXPECT_THROW(t.append(2, 0, 10), TopoError); // bad proc
    EXPECT_THROW(t.append(0, 0, 0), TopoError);  // zero length
}

TEST(Trace, ValidateCatchesOutOfBounds)
{
    const Program p = makeProgram();
    Trace t(p.procCount());
    t.append(0, 90, 20); // 90+20 > 100
    EXPECT_THROW(t.validate(p), TopoError);
}

TEST(FetchStream, ExpandsRunsToLines)
{
    const Program p = makeProgram();
    Trace t(p.procCount());
    t.append(0, 0, 100); // lines 0..3 at 32B lines
    t.append(1, 40, 8);  // line 1 only
    t.append(1, 40, 8);  // back to back: a second repeat
    const FetchStream stream(p, t, 32);
    ASSERT_EQ(stream.size(), 6u);
    // Program line ids: f owns 0..3, g owns 4..5.
    EXPECT_EQ(stream.runs(),
              (std::vector<FetchRun>{{0, 4, 1}, {5, 1, 2}}));
    EXPECT_EQ(stream.lineBase(1), 4u);
    EXPECT_EQ(stream.procOfLine(5), 1u);
}

TEST(FetchStream, SingleByteRun)
{
    const Program p = makeProgram();
    Trace t(p.procCount());
    t.append(0, 99, 1);
    const FetchStream stream(p, t, 32);
    ASSERT_EQ(stream.size(), 1u);
    EXPECT_EQ(stream.runs(), (std::vector<FetchRun>{{3, 1, 1}}));
}

TEST(FetchStream, EventLinesSpanFirstToLastByte)
{
    // Bytes [10, 110) at 32-byte lines are lines 0..3 of the procedure.
    EXPECT_EQ(eventLines(TraceEvent{0, 10, 100}, 32), (FetchRun{0, 4, 1}));
    EXPECT_EQ(eventLines(TraceEvent{0, 64, 1}, 32), (FetchRun{2, 1, 1}));
    // The last byte lies past 2^32: the end is exact in 64 bits.
    EXPECT_EQ(eventLines(TraceEvent{0, 0xFFFFFFF0u, 0x20u}, 64),
              (FetchRun{0x3FFFFFFu, 2, 1}));
}

TEST(FetchStream, WalkVisitsEveryFetchInOrder)
{
    const Program p = makeProgram();
    Trace t(p.procCount());
    t.append(0, 40, 50); // lines 1..2
    t.append(0, 40, 50);
    t.append(0, 40, 50);
    t.append(1, 0, 64); // lines 4..5
    t.append(0, 0, 1);  // line 0
    t.append(0, 0, 1);
    const FetchStream stream(p, t, 32);
    std::vector<std::uint32_t> ids;
    std::uint32_t first = 0;
    stream.forEachFetch(
        [&](const FetchRun &run) { first = run.first_line; },
        [&](std::uint32_t j) { ids.push_back(first + j); });
    EXPECT_EQ(ids, (std::vector<std::uint32_t>{1, 2, 1, 2, 1, 2, 4, 5,
                                               0, 0}));
    EXPECT_EQ(ids.size(), stream.size());
}

/** Property: total lines equals the per-run line-span sum. */
class FetchStreamLineTest : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(FetchStreamLineTest, LineCountMatchesSpans)
{
    const std::uint32_t line = GetParam();
    const Program p = makeProgram();
    Trace t(p.procCount());
    t.append(0, 10, 55);
    t.append(1, 0, 64);
    t.append(0, 96, 4);
    std::size_t expected = 0;
    for (const TraceEvent &ev : t.events()) {
        const std::uint32_t first = ev.offset / line;
        const std::uint32_t last = (ev.offset + ev.length - 1) / line;
        expected += last - first + 1;
    }
    const FetchStream stream(p, t, line);
    EXPECT_EQ(stream.size(), expected);
}

INSTANTIATE_TEST_SUITE_P(LineSizes, FetchStreamLineTest,
                         ::testing::Values(8u, 16u, 32u, 64u));

TEST(TraceIo, RoundTrip)
{
    const Program p = makeProgram();
    Trace t(p.procCount());
    t.append(0, 0, 100);
    t.append(1, 16, 48);
    std::stringstream ss;
    writeTrace(ss, t);
    const Trace back = readTrace(ss);
    EXPECT_EQ(back.procCount(), t.procCount());
    ASSERT_EQ(back.size(), t.size());
    EXPECT_EQ(back.events()[0], t.events()[0]);
    EXPECT_EQ(back.events()[1], t.events()[1]);
}

TEST(TraceIo, CommentsAndBlanksIgnored)
{
    std::stringstream ss("topo-trace v1 2\n# comment\n\n0 0 10\n");
    const Trace t = readTrace(ss);
    EXPECT_EQ(t.size(), 1u);
}

TEST(TraceIo, BadHeaderRejected)
{
    std::stringstream ss("not-a-trace\n");
    EXPECT_THROW(readTrace(ss), TopoError);
}

TEST(TraceIo, OutOfRangeProcRejected)
{
    std::stringstream ss("topo-trace v1 1\n5 0 10\n");
    EXPECT_THROW(readTrace(ss), TopoError);
}

TEST(TraceStats, CountsAndTotals)
{
    const Program p = makeProgram();
    Trace t(p.procCount());
    t.append(0, 0, 100);
    t.append(0, 0, 50);
    t.append(1, 0, 64);
    const TraceStats stats = computeTraceStats(p, t);
    EXPECT_EQ(stats.total_runs, 3u);
    EXPECT_EQ(stats.total_bytes, 214u);
    EXPECT_EQ(stats.run_count[0], 2u);
    EXPECT_EQ(stats.bytes_fetched[0], 150u);
    EXPECT_EQ(stats.procsTouched(), 2u);
}

TEST(TraceStats, MergeEqualsStatsOfConcatenation)
{
    const Program p = makeProgram();
    Trace a(p.procCount());
    a.append(0, 0, 100);
    a.append(0, 10, 20);
    Trace b(p.procCount());
    b.append(1, 0, 64);
    b.append(0, 0, 50);
    Trace ab(p.procCount());
    for (const Trace *t : {&a, &b}) {
        for (const TraceEvent &ev : t->events())
            ab.append(ev.proc, ev.offset, ev.length);
    }

    TraceStats merged = computeTraceStats(p, a);
    EXPECT_EQ(merged.procsTouched(), 1u);
    merged.merge(computeTraceStats(p, b));
    const TraceStats whole = computeTraceStats(p, ab);
    EXPECT_EQ(merged.run_count, whole.run_count);
    EXPECT_EQ(merged.bytes_fetched, whole.bytes_fetched);
    EXPECT_EQ(merged.total_runs, whole.total_runs);
    EXPECT_EQ(merged.total_bytes, whole.total_bytes);
    EXPECT_EQ(merged.procsTouched(), whole.procsTouched());
    EXPECT_EQ(merged.procsTouched(), 2u);

    EXPECT_THROW(merged.merge(TraceStats(3)), TopoError);
}

TEST(TraceStats, MismatchRejected)
{
    const Program p = makeProgram();
    Trace t(5);
    EXPECT_THROW(computeTraceStats(p, t), TopoError);
}

} // namespace
} // namespace topo
