/**
 * @file
 * Microbenchmarks (google-benchmark) for the Section 4.4 practicality
 * claims: TRG construction throughput, merge_nodes cost as P and C
 * grow (the paper's crude P^3 C^2 bound), full GBSC placement time,
 * and cache-simulation throughput.
 */

#include <benchmark/benchmark.h>

#include <cstdio>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "topo/cache/simulate.hh"
#include "topo/profile/wcg_builder.hh"
#include "topo/eval/experiment.hh"
#include "topo/placement/gbsc.hh"
#include "topo/placement/pettis_hansen.hh"
#include "topo/placement/popularity.hh"
#include "topo/profile/temporal_queue.hh"
#include "topo/profile/trg_builder.hh"
#include "topo/trace/trace_binary.hh"
#include "topo/trace/trace_io.hh"
#include "topo/trace/trace_stats.hh"
#include "topo/util/flat_map.hh"
#include "topo/util/rng.hh"
#include "topo/workload/paper_suite.hh"
#include "topo/workload/synthetic_program.hh"
#include "topo/workload/trace_synthesizer.hh"

namespace
{

using namespace topo;

/** Build a reusable workload/trace of a given popular-set size. */
struct Scenario
{
    WorkloadModel model;
    Trace trace{0};

    explicit Scenario(std::uint32_t popular, std::uint64_t runs)
    {
        SyntheticSpec spec;
        spec.name = "bench";
        spec.proc_count = popular * 3;
        spec.popular_count = popular;
        spec.popular_bytes = popular * 1200ULL;
        spec.total_bytes = spec.popular_bytes * 4;
        spec.phase_count = 4;
        spec.ranks = 4;
        spec.seed = 5;
        model = buildSyntheticWorkload(spec);
        WorkloadInput input;
        input.seed = 6;
        input.target_runs = runs;
        trace = synthesizeTrace(model, input);
    }
};

const Scenario &
scenario(std::uint32_t popular)
{
    static std::map<std::uint32_t, std::unique_ptr<Scenario>> cache;
    auto &slot = cache[popular];
    if (!slot)
        slot = std::make_unique<Scenario>(popular, 120000);
    return *slot;
}

/** gcc from the paper suite with its popular set, built once. */
struct GccProfileInput
{
    BenchmarkCase bench = paperBenchmark("gcc", 0.1);
    Trace trace = synthesizeTrace(bench.model, bench.train);
    PopularSet popular = selectPopular(
        bench.model.program, computeTraceStats(bench.model.program, trace));
    ChunkMap chunks{bench.model.program, 256};
};

const GccProfileInput &
gccProfileInput()
{
    static const GccProfileInput input;
    return input;
}

void
BM_TrgBuild(benchmark::State &state)
{
    // Arg 0: the synthetic 64-procedure scenario. Arg 1: gcc at trace
    // scale 0.1 under its popular mask, the repeat-heavy shape of the
    // real profile (83% of popular events repeat the one before, over
    // about 1.6K popular chunks), which the repeat elision and dense
    // counts target.
    const bool use_gcc = state.range(0) == 1;
    const Scenario &s = scenario(64);
    const ChunkMap synthetic_chunks(s.model.program, 256);
    const GccProfileInput *gcc = use_gcc ? &gccProfileInput() : nullptr;
    const Program &program = gcc ? gcc->bench.model.program
                                 : s.model.program;
    const Trace &trace = gcc ? gcc->trace : s.trace;
    const ChunkMap &chunks = gcc ? gcc->chunks : synthetic_chunks;
    TrgBuildOptions opts;
    opts.byte_budget = 16 * 1024;
    if (gcc)
        opts.popular = &gcc->popular.mask;
    for (auto _ : state) {
        const TrgBuildResult trg = buildTrgs(program, chunks, trace, opts);
        benchmark::DoNotOptimize(trg.select.edgeCount());
        benchmark::DoNotOptimize(trg.place.edgeCount());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(trace.size()));
}
BENCHMARK(BM_TrgBuild)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void
BM_MergeNodes(benchmark::State &state)
{
    // Merge two half-populated nodes at a given cache-line count C:
    // the inner offset scan is the paper's C^2 term.
    const std::uint32_t cache_lines =
        static_cast<std::uint32_t>(state.range(0));
    const Scenario &s = scenario(64);
    const ChunkMap chunks(s.model.program, 256);
    TrgBuildOptions opts;
    opts.byte_budget = 2ULL * cache_lines * 32ULL;
    const TrgBuildResult trg =
        buildTrgs(s.model.program, chunks, s.trace, opts);
    PlacementContext ctx;
    ctx.program = &s.model.program;
    ctx.cache = CacheConfig{cache_lines * 32, 32, 1};
    ctx.chunks = &chunks;
    ctx.trg_select = &trg.select;
    ctx.trg_place = &trg.place;
    // Two nodes, each holding half of the hot procedures stacked at
    // arbitrary offsets.
    GbscNode n1, n2;
    Rng rng(11);
    for (ProcId p = 0; p < s.model.program.procCount(); ++p) {
        if (s.model.program.proc(p).name.rfind("hot_", 0) != 0)
            continue;
        const auto offset =
            static_cast<std::uint32_t>(rng.nextBelow(cache_lines));
        ((p % 2) ? n1 : n2).procs.emplace_back(p, offset);
    }
    for (auto _ : state) {
        const GbscNode merged = Gbsc::mergeNodes(ctx, n1, n2);
        benchmark::DoNotOptimize(merged.procs.size());
    }
}
BENCHMARK(BM_MergeNodes)->Arg(128)->Arg(256)->Arg(512)->Arg(1024)
    ->Unit(benchmark::kMillisecond);

void
BM_GbscPlacement(benchmark::State &state)
{
    // Whole-algorithm runtime as the popular-procedure count P grows;
    // the paper reports tens of seconds to minutes for P in 30-150 on
    // 1997 hardware.
    const std::uint32_t popular =
        static_cast<std::uint32_t>(state.range(0));
    const Scenario &s = scenario(popular);
    const ChunkMap chunks(s.model.program, 256);
    TrgBuildOptions opts;
    opts.byte_budget = 16 * 1024;
    const TrgBuildResult trg =
        buildTrgs(s.model.program, chunks, s.trace, opts);
    PlacementContext ctx;
    ctx.program = &s.model.program;
    ctx.cache = CacheConfig::paperDefault();
    ctx.chunks = &chunks;
    ctx.trg_select = &trg.select;
    ctx.trg_place = &trg.place;
    const Gbsc gbsc;
    for (auto _ : state) {
        const Layout layout = gbsc.place(ctx);
        benchmark::DoNotOptimize(layout.extent(s.model.program));
    }
}
BENCHMARK(BM_GbscPlacement)->Arg(32)->Arg(64)->Arg(128)
    ->Unit(benchmark::kMillisecond);

void
BM_PettisHansenPlacement(benchmark::State &state)
{
    const Scenario &s = scenario(128);
    const WeightedGraph wcg = buildWcg(s.model.program, s.trace);
    PlacementContext ctx;
    ctx.program = &s.model.program;
    ctx.cache = CacheConfig::paperDefault();
    ctx.wcg = &wcg;
    const PettisHansen ph;
    for (auto _ : state) {
        const Layout layout = ph.place(ctx);
        benchmark::DoNotOptimize(layout.extent(s.model.program));
    }
}
BENCHMARK(BM_PettisHansenPlacement)->Unit(benchmark::kMillisecond);

void
BM_CacheSimulation(benchmark::State &state)
{
    const Scenario &s = scenario(64);
    const CacheConfig cache = CacheConfig::paperDefault();
    const FetchStream stream(s.model.program, s.trace,
                             cache.line_bytes);
    const Layout layout =
        Layout::defaultOrder(s.model.program, cache.line_bytes);
    for (auto _ : state) {
        const SimResult result =
            simulateLayout(s.model.program, layout, stream, cache);
        benchmark::DoNotOptimize(result.misses);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(stream.size()));
}
BENCHMARK(BM_CacheSimulation)->Unit(benchmark::kMillisecond);

void
BM_TemporalQueueReference(benchmark::State &state)
{
    // The Section 3 per-reference path (byte-vector residency test,
    // intrusive-list splice, between-walk) on a loopy block stream.
    constexpr std::size_t kBlocks = 4096;
    std::vector<std::uint32_t> sizes(kBlocks);
    Rng size_rng(17);
    for (std::uint32_t &size : sizes)
        size = 64 + static_cast<std::uint32_t>(size_rng.nextBelow(192));
    // Pre-drawn reference stream with loop-like locality: mostly small
    // strides within a moving window, occasional far jumps.
    std::vector<BlockId> refs(1 << 16);
    Rng ref_rng(18);
    BlockId at = 0;
    for (BlockId &ref : refs) {
        if (ref_rng.nextBool(0.05))
            at = static_cast<BlockId>(ref_rng.nextBelow(kBlocks));
        else
            at = static_cast<BlockId>(
                (at + 1 + ref_rng.nextBelow(16)) % kBlocks);
        ref = at;
    }
    TemporalQueue queue(sizes, 32 * 1024);
    std::vector<BlockId> between;
    for (auto _ : state) {
        std::uint64_t walked = 0;
        for (const BlockId ref : refs) {
            if (queue.reference(ref, between))
                walked += between.size();
        }
        benchmark::DoNotOptimize(walked);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(refs.size()));
}
BENCHMARK(BM_TemporalQueueReference)->Unit(benchmark::kMillisecond);

/** Shared key stream for the map-accumulation pair of benchmarks. */
const std::vector<std::uint64_t> &
pairKeyStream()
{
    // Packed (prev << 32 | next) procedure-pair keys with the locality
    // a real trace produces: a few hundred distinct pairs, heavily
    // skewed towards repeats — the PairDatabase/WeightedGraph
    // accumulation profile.
    static const std::vector<std::uint64_t> keys = [] {
        std::vector<std::uint64_t> out(1 << 18);
        Rng rng(23);
        std::uint64_t prev = 0;
        for (std::uint64_t &key : out) {
            const std::uint64_t next =
                rng.nextBool(0.8) ? (prev + 1) % 64
                                  : rng.nextBelow(1024);
            key = (prev << 32) | next;
            prev = next;
        }
        return out;
    }();
    return keys;
}

void
BM_FlatMapAccumulate(benchmark::State &state)
{
    const std::vector<std::uint64_t> &keys = pairKeyStream();
    for (auto _ : state) {
        util::FlatMap<std::uint64_t, std::uint64_t> map;
        for (const std::uint64_t key : keys)
            map[key] += 1;
        benchmark::DoNotOptimize(map.size());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(keys.size()));
}
BENCHMARK(BM_FlatMapAccumulate)->Unit(benchmark::kMillisecond);

void
BM_UnorderedMapAccumulate(benchmark::State &state)
{
    // The container FlatMap replaced, on the identical key stream.
    const std::vector<std::uint64_t> &keys = pairKeyStream();
    for (auto _ : state) {
        std::unordered_map<std::uint64_t, std::uint64_t> map;
        for (const std::uint64_t key : keys)
            map[key] += 1;
        benchmark::DoNotOptimize(map.size());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(keys.size()));
}
BENCHMARK(BM_UnorderedMapAccumulate)->Unit(benchmark::kMillisecond);

/** Write the scenario trace to a temp file once; return its path. */
const std::string &
benchTracePath()
{
    static const std::string path = [] {
        const std::string p = "/tmp/topo_perf_microbench_trace.tpb";
        saveBinaryTrace(p, scenario(64).trace);
        return p;
    }();
    return path;
}

void
BM_TraceLoadMmap(benchmark::State &state)
{
    const std::string &path = benchTracePath();
    TraceReadOptions ropts;
    ropts.mmap = TraceMmapMode::kOn;
    std::size_t records = 0;
    for (auto _ : state) {
        const Trace trace = loadBinaryTrace(path, ropts);
        records = trace.size();
        benchmark::DoNotOptimize(records);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(records));
}
BENCHMARK(BM_TraceLoadMmap)->Unit(benchmark::kMillisecond);

void
BM_TraceLoadStream(benchmark::State &state)
{
    const std::string &path = benchTracePath();
    TraceReadOptions ropts;
    ropts.mmap = TraceMmapMode::kOff;
    std::size_t records = 0;
    for (auto _ : state) {
        const Trace trace = loadBinaryTrace(path, ropts);
        records = trace.size();
        benchmark::DoNotOptimize(records);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(records));
}
BENCHMARK(BM_TraceLoadStream)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
