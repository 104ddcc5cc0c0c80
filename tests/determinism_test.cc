/**
 * @file
 * Determinism-contract tests (DESIGN.md §9).
 *
 * Two families: (1) placement algorithms run twice from independently
 * rebuilt profiles must produce identical layouts and miss counts —
 * the guard against hash-order iteration leaking into placement
 * decisions; (2) profile builds, placements and artefacts must be
 * bit-identical for every --jobs value, including the pooled WCG
 * build.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <sstream>
#include <vector>

#include "topo/cache/simulate.hh"
#include "topo/eval/experiment.hh"
#include "topo/eval/layout_diff.hh"
#include "topo/placement/decision_log.hh"
#include "topo/trace/fetch_stream.hh"
#include "topo/trace/trace_binary.hh"
#include "topo/trace/trace_mmap.hh"
#include "topo/exec/exec.hh"
#include "topo/placement/cache_coloring.hh"
#include "topo/placement/gbsc.hh"
#include "topo/placement/pettis_hansen.hh"
#include "topo/profile/pair_database.hh"
#include "topo/profile/trg_builder.hh"
#include "topo/profile/wcg_builder.hh"
#include "topo/workload/paper_suite.hh"
#include "topo/workload/trace_synthesizer.hh"
#include "test_support.hh"

namespace topo
{
namespace
{

void
expectGraphsEqual(const WeightedGraph &a, const WeightedGraph &b,
                  const std::string &what)
{
    ASSERT_EQ(a.nodeCount(), b.nodeCount()) << what;
    ASSERT_EQ(a.edgeCount(), b.edgeCount()) << what;
    const std::vector<WeightedGraph::Edge> ea = a.edges();
    const std::vector<WeightedGraph::Edge> eb = b.edges();
    ASSERT_EQ(ea.size(), eb.size()) << what;
    for (std::size_t i = 0; i < ea.size(); ++i) {
        EXPECT_EQ(ea[i].u, eb[i].u) << what << " edge " << i;
        EXPECT_EQ(ea[i].v, eb[i].v) << what << " edge " << i;
        // TRG weights are integer-valued counts, so equality is exact.
        EXPECT_EQ(ea[i].weight, eb[i].weight)
            << what << " edge {" << ea[i].u << "," << ea[i].v << "}";
    }
}

void
expectResultsEqual(const TrgBuildResult &a, const TrgBuildResult &b)
{
    expectGraphsEqual(a.select, b.select, "TRG_select");
    expectGraphsEqual(a.place, b.place, "TRG_place");
    EXPECT_EQ(a.proc_steps, b.proc_steps);
    EXPECT_EQ(a.proc_evictions, b.proc_evictions);
    EXPECT_EQ(a.chunk_evictions, b.chunk_evictions);
    EXPECT_DOUBLE_EQ(a.avg_queue_procs, b.avg_queue_procs);
}

/** Layouts must agree address-by-address, not just in order. */
void
expectLayoutsEqual(const Program &program, const Layout &a,
                   const Layout &b, const std::string &what)
{
    ASSERT_EQ(a.procCount(), b.procCount()) << what;
    for (ProcId p = 0; p < program.procCount(); ++p) {
        EXPECT_EQ(a.address(p), b.address(p))
            << what << ": procedure " << program.proc(p).name;
    }
}

TEST(Determinism, AlgorithmsRepeatAcrossIndependentProfileBuilds)
{
    // Rebuild the entire profile pipeline twice; any hash-order
    // dependence in TRG/WCG construction or in the placement
    // algorithms shows up as an address mismatch here.
    const EvalOptions eval;
    const ProfileBundle first(paperBenchmark("gcc", 0.01), eval);
    const ProfileBundle second(paperBenchmark("gcc", 0.01), eval);

    const PettisHansen ph;
    const CacheColoring hkc;
    const Gbsc gbsc;
    const PlacementAlgorithm *algorithms[] = {&ph, &hkc, &gbsc};

    for (const PlacementAlgorithm *algorithm : algorithms) {
        const Layout a = algorithm->place(first.makeContext());
        const Layout b = algorithm->place(second.makeContext());
        expectLayoutsEqual(first.program(), a, b, algorithm->name());
        EXPECT_DOUBLE_EQ(first.testMissRate(a), second.testMissRate(b))
            << algorithm->name();
    }
}

TEST(Determinism, MmapAndStreamTraceSourcesPlaceIdentically)
{
    // The zero-copy mapped loader must be invisible to every consumer:
    // a trace round-tripped through disk and loaded via mmap vs
    // readBinaryTrace over a stream of the same bytes, then pushed
    // through the full profile -> placement -> simulation pipeline at
    // jobs 1 and 4, must yield identical layouts and miss counts in
    // all combinations.
    if (!mmapSupported())
        GTEST_SKIP() << "no mmap on this platform";
    const BenchmarkCase bench = paperBenchmark("gcc", 0.01);
    const Program &program = bench.model.program;
    const Trace original = synthesizeTrace(bench.model, bench.train);
    const TestTempDir tmp;
    const std::string path = tmp.file("determinism_mmap.tpb");
    saveBinaryTrace(path, original);
    const Trace mapped = loadBinaryTrace(path);
    std::stringstream bytes;
    writeBinaryTrace(bytes, original);
    const Trace streamed = readBinaryTrace(bytes);
    std::remove(path.c_str());
    ASSERT_EQ(mapped.size(), original.size());
    ASSERT_EQ(streamed.size(), original.size());

    CacheConfig cache;
    cache.size_bytes = 4096;
    cache.line_bytes = 32;
    cache.associativity = 1;
    const ChunkMap chunks(program);
    const PettisHansen ph;
    const CacheColoring hkc;
    const Gbsc gbsc;
    const PlacementAlgorithm *algorithms[] = {&ph, &hkc, &gbsc};

    struct Outcome
    {
        std::vector<Layout> layouts;
        std::vector<std::uint64_t> misses;
    };
    const auto run = [&](const Trace &trace, int jobs) {
        setExecJobs(jobs);
        const TrgBuildResult trg =
            buildTrgs(program, chunks, trace, TrgBuildOptions{});
        const WeightedGraph wcg = buildWcg(program, trace);
        const PairDatabase pairs =
            buildPairDatabase(program, trace, PairBuildOptions{});
        setExecJobs(1);
        PlacementContext ctx;
        ctx.program = &program;
        ctx.cache = cache;
        ctx.chunks = &chunks;
        ctx.wcg = &wcg;
        ctx.trg_select = &trg.select;
        ctx.trg_place = &trg.place;
        ctx.pairs = &pairs;
        ctx.heat.assign(program.procCount(), 0.0);
        for (const TraceEvent &ev : trace.events())
            ctx.heat[ev.proc] += static_cast<double>(ev.length);
        const FetchStream stream(program, trace, cache.line_bytes);
        Outcome out;
        for (const PlacementAlgorithm *algorithm : algorithms) {
            Layout layout = algorithm->place(ctx);
            out.misses.push_back(
                simulateLayout(program, layout, stream, cache, false)
                    .misses);
            out.layouts.push_back(std::move(layout));
        }
        return out;
    };

    const Outcome reference = run(mapped, 1);
    const struct
    {
        const Trace *trace;
        int jobs;
        const char *what;
    } variants[] = {
        {&mapped, 4, "mapped jobs=4"},
        {&streamed, 1, "streamed jobs=1"},
        {&streamed, 4, "streamed jobs=4"},
    };
    for (const auto &variant : variants) {
        const Outcome got = run(*variant.trace, variant.jobs);
        for (std::size_t a = 0; a < std::size(algorithms); ++a) {
            expectLayoutsEqual(program, got.layouts[a],
                               reference.layouts[a],
                               std::string(variant.what) + " " +
                                   algorithms[a]->name());
            EXPECT_EQ(got.misses[a], reference.misses[a])
                << variant.what << " " << algorithms[a]->name();
        }
    }
}

TEST(Determinism, PooledProfileBuildsMatchSerial)
{
    // End-to-end: the real buildTrgs/buildWcg/buildPairDatabase entry
    // points with the pool engaged vs fully serial. All three walks
    // are serial at any jobs count.
    const BenchmarkCase bench = paperBenchmark("gcc", 0.03);
    const Program &program = bench.model.program;
    const Trace trace = synthesizeTrace(bench.model, bench.train);
    const ChunkMap chunks(program);
    const TrgBuildOptions trg_options;

    setExecJobs(1);
    const TrgBuildResult serial_trg =
        buildTrgs(program, chunks, trace, trg_options);
    const WeightedGraph serial_wcg = buildWcg(program, trace);
    const PairBuildOptions pair_options;
    const PairDatabase serial_pairs =
        buildPairDatabase(program, trace, pair_options);

    setExecJobs(4);
    const TrgBuildResult pooled_trg =
        buildTrgs(program, chunks, trace, trg_options);
    const WeightedGraph pooled_wcg = buildWcg(program, trace);
    const PairDatabase pooled_pairs =
        buildPairDatabase(program, trace, pair_options);
    setExecJobs(1);

    expectResultsEqual(pooled_trg, serial_trg);
    expectGraphsEqual(pooled_wcg, serial_wcg, "WCG");

    const std::vector<PairDatabase::Entry> sp = serial_pairs.entries();
    const std::vector<PairDatabase::Entry> pp = pooled_pairs.entries();
    ASSERT_EQ(sp.size(), pp.size());
    for (std::size_t i = 0; i < sp.size(); ++i) {
        EXPECT_EQ(sp[i].p, pp[i].p) << "pair entry " << i;
        EXPECT_EQ(sp[i].r, pp[i].r) << "pair entry " << i;
        EXPECT_EQ(sp[i].s, pp[i].s) << "pair entry " << i;
        EXPECT_EQ(sp[i].weight, pp[i].weight) << "pair entry " << i;
    }
}

TEST(Determinism, SeededRandomPolicyIsJobsInvariantAndRepeatable)
{
    // The random replacement policy draws from a per-cache-instance
    // counter RNG seeded by CacheConfig::policy_seed, so full pipeline
    // runs must be bit-identical across --jobs values and across
    // reruns — no global RNG state leaks between grid cells.
    EvalOptions eval;
    eval.cache.associativity = 4;
    eval.cache.policy = ReplacementPolicy::kRandom;
    const Gbsc gbsc;

    auto run = [&](int jobs) {
        setExecJobs(jobs);
        const ProfileBundle bundle(paperBenchmark("gcc", 0.01), eval);
        const Layout layout = gbsc.place(bundle.makeContext());
        const double miss_rate = bundle.testMissRate(layout);
        setExecJobs(1);
        return std::make_pair(layout, miss_rate);
    };

    const auto serial = run(1);
    const auto rerun = run(1);
    const auto pooled = run(4);
    const ProfileBundle bundle(paperBenchmark("gcc", 0.01), eval);
    expectLayoutsEqual(bundle.program(), serial.first, rerun.first,
                       "rerun");
    expectLayoutsEqual(bundle.program(), serial.first, pooled.first,
                       "jobs=4");
    EXPECT_DOUBLE_EQ(serial.second, rerun.second);
    EXPECT_DOUBLE_EQ(serial.second, pooled.second);
}

TEST(Determinism, ExplainArtifactsAreJobsInvariant)
{
    // The decisions artifact and the attributed layout-diff artifact
    // must be byte-identical for any --jobs value: decision recording
    // is strictly sequential inside each algorithm, and the diff's
    // double replay merges per-task metrics in fixed side order.
    const EvalOptions eval;
    const ProfileBundle bundle(paperBenchmark("gcc", 0.01), eval);
    const Gbsc gbsc;
    const PettisHansen ph;

    auto render = [&]() {
        DecisionLog log;
        log.setAlgorithm("gbsc");
        log.setCache(eval.cache);
        PlacementContext ctx = bundle.makeContext();
        ctx.decisions = &log;
        const Layout gb = gbsc.place(ctx);
        const Layout base = ph.place(bundle.makeContext());

        LayoutDiff diff = buildLayoutDiff(bundle.program(), eval.cache,
                                          base, gb, "ph", "gbsc");
        attributeMissDelta(diff, bundle.program(), base, gb,
                           bundle.testStream());
        crossReferenceDecisions(diff, bundle.program(),
                                snapshotDecisions(log,
                                                  bundle.program()));
        return std::make_pair(
            log.toJson(bundle.program()).toString(),
            diffToJson(diff, bundle.program()).toString());
    };

    setExecJobs(1);
    const auto serial = render();
    setExecJobs(4);
    const auto pooled = render();
    setExecJobs(1);

    EXPECT_EQ(serial.first, pooled.first) << "decisions JSON";
    EXPECT_EQ(serial.second, pooled.second) << "diff JSON";
}

} // namespace
} // namespace topo
