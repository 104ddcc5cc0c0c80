/**
 * @file
 * Tests for TRG construction (Section 3), including the paper's
 * Figure 1/2 qualitative claims and the chunk-granularity TRG_place.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <string>

#include "topo/eval/experiment.hh"
#include "topo/placement/popularity.hh"
#include "topo/profile/trg_builder.hh"
#include "topo/profile/wcg_builder.hh"
#include "topo/trace/trace_stats.hh"
#include "topo/util/rng.hh"
#include "topo/workload/figure1.hh"
#include "topo/workload/paper_suite.hh"
#include "topo/workload/trace_synthesizer.hh"

#include "test_support.hh"

namespace topo
{
namespace
{

TrgBuildOptions
figure1Options(const Figure1Example &ex)
{
    TrgBuildOptions opts;
    opts.byte_budget = 2 * ex.cache.size_bytes;
    return opts;
}

TEST(Trg, Figure2SiblingEdgesAppearOnlyWithInterleaving)
{
    const Figure1Example ex = makeFigure1Example();
    const ChunkMap chunks(ex.program, 256);

    // Trace #2 (phased): X and Y never interleave, so the TRG must
    // contain edges (X,Z) and (Y,Z) but only a negligible (X,Y)
    // weight (one phase transition at most).
    const TrgBuildResult trg2 =
        buildTrgs(ex.program, chunks, ex.trace2(), figure1Options(ex));
    EXPECT_GT(trg2.select.weight(ex.m, ex.x), 0.0);
    EXPECT_GT(trg2.select.weight(ex.m, ex.y), 0.0);
    EXPECT_GT(trg2.select.weight(ex.m, ex.z), 0.0);
    EXPECT_GT(trg2.select.weight(ex.x, ex.z), 0.0);
    EXPECT_GT(trg2.select.weight(ex.y, ex.z), 0.0);
    // X/Y interleave only around the single phase boundary.
    EXPECT_LE(trg2.select.weight(ex.x, ex.y), 2.0);

    // Trace #1 (alternating): X and Y interleave constantly.
    const TrgBuildResult trg1 =
        buildTrgs(ex.program, chunks, ex.trace1(), figure1Options(ex));
    EXPECT_GT(trg1.select.weight(ex.x, ex.y),
              10.0 * trg2.select.weight(ex.x, ex.y));
}

TEST(Trg, WcgIdenticalForBothTracesButTrgDiffers)
{
    // The motivating claim of Section 1: both traces produce the same
    // WCG, yet their TRGs differ.
    const Figure1Example ex = makeFigure1Example();
    const WeightedGraph wcg1 = buildWcg(ex.program, ex.trace1());
    const WeightedGraph wcg2 = buildWcg(ex.program, ex.trace2());
    for (ProcId a = 0; a < 4; ++a) {
        for (ProcId b = a + 1; b < 4; ++b)
            EXPECT_DOUBLE_EQ(wcg1.weight(a, b), wcg2.weight(a, b))
                << "(" << a << "," << b << ")";
    }
    const ChunkMap chunks(ex.program, 256);
    const TrgBuildResult trg1 =
        buildTrgs(ex.program, chunks, ex.trace1(), figure1Options(ex));
    const TrgBuildResult trg2 =
        buildTrgs(ex.program, chunks, ex.trace2(), figure1Options(ex));
    EXPECT_NE(trg1.select.weight(ex.x, ex.y),
              trg2.select.weight(ex.x, ex.y));
}

TEST(Trg, EdgeWeightCountsInterveningReferences)
{
    // Trace f g f: one edge increment (g between the two f's).
    Program p("t");
    const ProcId f = p.addProcedure("f", 32);
    const ProcId g = p.addProcedure("g", 32);
    Trace t(2);
    t.append(f, 0, 32);
    t.append(g, 0, 32);
    t.append(f, 0, 32);
    const ChunkMap chunks(p, 256);
    TrgBuildOptions opts;
    opts.byte_budget = 1024;
    const TrgBuildResult trg = buildTrgs(p, chunks, t, opts);
    EXPECT_DOUBLE_EQ(trg.select.weight(f, g), 1.0);
}

TEST(Trg, NoEdgeWithoutReuse)
{
    // Trace f g: g is never between two references to anything.
    Program p("t");
    const ProcId f = p.addProcedure("f", 32);
    const ProcId g = p.addProcedure("g", 32);
    Trace t(2);
    t.append(f, 0, 32);
    t.append(g, 0, 32);
    const ChunkMap chunks(p, 256);
    TrgBuildOptions opts;
    opts.byte_budget = 1024;
    const TrgBuildResult trg = buildTrgs(p, chunks, t, opts);
    EXPECT_DOUBLE_EQ(trg.select.weight(f, g), 0.0);
    EXPECT_EQ(trg.select.edgeCount(), 0u);
}

TEST(Trg, CapacityBoundPreventsDistantEdges)
{
    // f ... lots of unique code ... f: the second reference to f must
    // not create edges because f was evicted from Q (capacity, not
    // timely interleaving — Section 3).
    Program p("t");
    const ProcId f = p.addProcedure("f", 64);
    std::vector<ProcId> fillers;
    for (int i = 0; i < 20; ++i)
        fillers.push_back(p.addProcedure(
            std::string("u").append(std::to_string(i)), 512));
    Trace t(p.procCount());
    t.append(f, 0, 64);
    for (ProcId u : fillers)
        t.append(u, 0, 512);
    t.append(f, 0, 64);
    const ChunkMap chunks(p, 256);
    TrgBuildOptions opts;
    opts.byte_budget = 2048; // far less than 20*512 bytes of filler
    const TrgBuildResult trg = buildTrgs(p, chunks, t, opts);
    for (ProcId u : fillers)
        EXPECT_DOUBLE_EQ(trg.select.weight(f, u), 0.0);
}

TEST(Trg, PopularFilterDropsColdProcs)
{
    Program p("t");
    const ProcId f = p.addProcedure("f", 32);
    const ProcId g = p.addProcedure("g", 32);
    const ProcId cold = p.addProcedure("cold", 32);
    Trace t(3);
    t.append(f, 0, 32);
    t.append(cold, 0, 32);
    t.append(g, 0, 32);
    t.append(f, 0, 32);
    const ChunkMap chunks(p, 256);
    TrgBuildOptions opts;
    opts.byte_budget = 1024;
    std::vector<bool> popular{true, true, false};
    opts.popular = &popular;
    const TrgBuildResult trg = buildTrgs(p, chunks, t, opts);
    EXPECT_DOUBLE_EQ(trg.select.weight(f, g), 1.0);
    EXPECT_DOUBLE_EQ(trg.select.weight(f, cold), 0.0);
}

TEST(Trg, ChunkGranularityConnectsChunksNotJustProcs)
{
    // Two multi-chunk procedures alternating: TRG_place must connect
    // their chunks pairwise (the executed ones).
    Program p("t");
    const ProcId f = p.addProcedure("f", 512); // 2 chunks of 256
    const ProcId g = p.addProcedure("g", 512);
    Trace t(2);
    for (int i = 0; i < 5; ++i) {
        t.append(f, 0, 512);
        t.append(g, 0, 512);
    }
    const ChunkMap chunks(p, 256);
    TrgBuildOptions opts;
    opts.byte_budget = 8192;
    const TrgBuildResult trg = buildTrgs(p, chunks, t, opts);
    const ChunkId f0 = chunks.chunkId(f, 0);
    const ChunkId f1 = chunks.chunkId(f, 1);
    const ChunkId g0 = chunks.chunkId(g, 0);
    EXPECT_GT(trg.place.weight(f0, g0), 0.0);
    EXPECT_GT(trg.place.weight(f1, g0), 0.0);
    // Within one pass through f, f0 is not between two f0 references.
    EXPECT_GT(trg.place.weight(f0, f1), 0.0);
}

TEST(Trg, AverageQueueSizeReported)
{
    const Figure1Example ex = makeFigure1Example();
    const ChunkMap chunks(ex.program, 256);
    const TrgBuildResult trg =
        buildTrgs(ex.program, chunks, ex.trace2(), figure1Options(ex));
    EXPECT_GT(trg.avg_queue_procs, 1.0);
    EXPECT_LE(trg.avg_queue_procs, 4.0);
    EXPECT_GT(trg.proc_steps, 0u);
}

TEST(Trg, ObserverSeesEverything)
{
    const Figure1Example ex = makeFigure1Example();
    const ChunkMap chunks(ex.program, 256);
    TrgBuildOptions opts = figure1Options(ex);
    std::size_t steps = 0;
    std::size_t with_prev = 0;
    opts.observer = [&](ProcId, bool had_prev,
                        const std::vector<BlockId> &,
                        const TemporalQueue &q) {
        ++steps;
        with_prev += had_prev;
        EXPECT_GE(q.size(), 1u);
    };
    const TrgBuildResult trg =
        buildTrgs(ex.program, chunks, ex.trace2(), opts);
    EXPECT_EQ(steps, trg.proc_steps);
    EXPECT_GT(with_prev, 0u);
}

/** Golden facts of one suite program's serial TRG build. */
struct TrgGolden
{
    const char *name;
    std::size_t select_edges;
    std::size_t place_edges;
    std::uint64_t select_hash;
    std::uint64_t place_hash;
    std::uint64_t proc_steps;
    std::uint64_t proc_evictions;
    std::uint64_t chunk_evictions;
    double avg_queue_procs;
};

TEST(Trg, GoldenSuiteBuildsAtScale005)
{
    // Recorded from the plain Section 3 walk (one FlatMap probe per
    // credited pair, no repeat elision) before the dense-count and
    // repeat-elision build replaced it. Any change to an edge, a
    // weight bit or a walk statistic of the exact build fails here.
    static const TrgGolden kGolden[] = {
        {"gcc", 181, 11078,
         0xad10b2b87533a455ULL, 0x810b1ab4216b51f4ULL,
         3585, 1392, 11623, 0x1.ba0e238fbee01p+2},
        {"go", 317, 6121,
         0x4ccfd43805196e26ULL, 0xc108311badc74fa6ULL,
         3533, 1149, 3869, 0x1.1901f4d759a1fp+4},
        {"ghostscript", 1191, 6568,
         0x56608e080003a695ULL, 0xabe39116164cad8eULL,
         6403, 1587, 3291, 0x1.03f4f7158cc62p+5},
        {"m88ksim", 333, 3086,
         0xac1c28e5dddbb93cULL, 0x9666c93050666147ULL,
         9538, 82, 295, 0x1.6f2aff68d64a6p+4},
        {"perl", 227, 11829,
         0xda82272a86d0a518ULL, 0x8478bfb9e246f18eULL,
         9067, 2444, 21130, 0x1.155f92ad4d46fp+3},
        {"vortex", 703, 8357,
         0x0ad9dad2792a67bbULL, 0x85bd7c29799e2698ULL,
         5690, 1522, 5227, 0x1.52c005c245a58p+4},
    };
    const EvalOptions eval;
    for (const TrgGolden &want : kGolden) {
        SCOPED_TRACE(want.name);
        const BenchmarkCase bench = paperBenchmark(want.name, 0.05);
        const Program &program = bench.model.program;
        const Trace trace = synthesizeTrace(bench.model, bench.train);
        const PopularSet popular = selectPopular(
            program, computeTraceStats(program, trace), eval.popularity);
        const ChunkMap chunks(program, eval.chunk_bytes);
        TrgBuildOptions opts;
        opts.byte_budget = static_cast<std::uint64_t>(
            eval.q_budget_factor * eval.cache.size_bytes);
        opts.popular = &popular.mask;
        const TrgBuildResult got = buildTrgs(program, chunks, trace, opts);

        char row[320];
        std::snprintf(row, sizeof row,
                      "{\"%s\", %zu, %zu, 0x%016llxULL, 0x%016llxULL, "
                      "%llu, %llu, %llu, %a},",
                      want.name, got.select.edgeCount(),
                      got.place.edgeCount(),
                      static_cast<unsigned long long>(edgeHash(got.select)),
                      static_cast<unsigned long long>(edgeHash(got.place)),
                      static_cast<unsigned long long>(got.proc_steps),
                      static_cast<unsigned long long>(got.proc_evictions),
                      static_cast<unsigned long long>(got.chunk_evictions),
                      got.avg_queue_procs);
        SCOPED_TRACE(std::string("measured row: ") + row);
        EXPECT_EQ(got.select.edgeCount(), want.select_edges);
        EXPECT_EQ(got.place.edgeCount(), want.place_edges);
        EXPECT_EQ(edgeHash(got.select), want.select_hash);
        EXPECT_EQ(edgeHash(got.place), want.place_hash);
        EXPECT_EQ(got.proc_steps, want.proc_steps);
        EXPECT_EQ(got.proc_evictions, want.proc_evictions);
        EXPECT_EQ(got.chunk_evictions, want.chunk_evictions);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got.avg_queue_procs),
                  std::bit_cast<std::uint64_t>(want.avg_queue_procs));
    }
}

/** Property: select-TRG weights are symmetric and non-negative. */
class TrgSymmetryTest : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(TrgSymmetryTest, SymmetricWeights)
{
    Program p("t");
    for (int i = 0; i < 12; ++i)
        p.addProcedure(std::string("p").append(std::to_string(i)),
                       64 + 16 * i);
    Trace t(p.procCount());
    Rng rng(GetParam());
    for (int i = 0; i < 3000; ++i) {
        const ProcId id = static_cast<ProcId>(rng.nextBelow(12));
        t.append(id, 0, p.proc(id).size_bytes);
    }
    const ChunkMap chunks(p, 256);
    TrgBuildOptions opts;
    opts.byte_budget = GetParam() * 128 + 256;
    const TrgBuildResult trg = buildTrgs(p, chunks, t, opts);
    for (ProcId a = 0; a < 12; ++a) {
        for (ProcId b = 0; b < 12; ++b) {
            EXPECT_DOUBLE_EQ(trg.select.weight(a, b),
                             trg.select.weight(b, a));
            EXPECT_GE(trg.select.weight(a, b), 0.0);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TrgSymmetryTest,
                         ::testing::Values(1u, 2u, 3u, 8u));

} // namespace
} // namespace topo
