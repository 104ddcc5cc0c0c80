/**
 * @file
 * Allocation bounds on the library's hot paths. A check that passes
 * must not allocate, so the work per event (synthesis, the TRG walk,
 * fetch-stream expansion, replay) allocates the same amount at trace
 * scale s and 4s, and checks that loop over procedures (Layout::
 * validate) allocate a constant amount. GBSC placement has a fixed
 * budget per merge.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>

#include "topo/cache/simulate.hh"
#include "topo/eval/experiment.hh"
#include "topo/placement/gbsc.hh"
#include "topo/profile/trg_builder.hh"
#include "topo/trace/fetch_stream.hh"
#include "topo/workload/paper_suite.hh"
#include "topo/workload/trace_synthesizer.hh"
#include "alloc_counter.hh"

namespace topo
{
namespace
{

/** Allocations made by @p fn. */
template <typename Fn>
std::uint64_t
allocsOf(Fn &&fn)
{
    const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
    fn();
    return g_allocs.load(std::memory_order_relaxed) - before;
}

/**
 * Allowance for growth that is not per event: a vector that holds
 * every event reallocates about twice more at 4x the events, and
 * graph tables grow with distinct edges, not with events.
 */
constexpr std::uint64_t kGrowthSlack = 16;

TEST(AllocBound, PerEventPathsAllocateTheSameAtScaleSAndFourS)
{
    // gcc's test input at trace scale 0.01, and four times as long.
    const BenchmarkCase bench = paperBenchmark("gcc", 0.01);
    WorkloadInput big_input = bench.test;
    big_input.target_runs *= 4;
    const Program &program = bench.model.program;
    const CacheConfig cache = CacheConfig::paperDefault();

    Trace small_trace(0);
    Trace big_trace(0);
    const std::uint64_t synth_small = allocsOf(
        [&] { small_trace = synthesizeTrace(bench.model, bench.test); });
    const std::uint64_t synth_big = allocsOf(
        [&] { big_trace = synthesizeTrace(bench.model, big_input); });
    ASSERT_GE(big_trace.size(), 3 * small_trace.size());
    EXPECT_LE(synth_big, synth_small + kGrowthSlack);

    const ChunkMap chunks(program);
    TrgBuildOptions options;
    options.byte_budget = 2 * cache.size_bytes;
    const std::uint64_t trg_small =
        allocsOf([&] { buildTrgs(program, chunks, small_trace, options); });
    const std::uint64_t trg_big =
        allocsOf([&] { buildTrgs(program, chunks, big_trace, options); });
    EXPECT_LE(trg_big, trg_small + kGrowthSlack);

    const std::uint64_t stream_small = allocsOf([&] {
        const FetchStream stream(program, small_trace, cache.line_bytes);
    });
    const std::uint64_t stream_big = allocsOf([&] {
        const FetchStream stream(program, big_trace, cache.line_bytes);
    });
    EXPECT_LE(stream_big, stream_small + kGrowthSlack);

    const FetchStream small_stream(program, small_trace, cache.line_bytes);
    const FetchStream big_stream(program, big_trace, cache.line_bytes);
    const Layout layout = Layout::defaultOrder(program, cache.line_bytes);
    simulateLayout(program, layout, big_stream, cache); // grow the table
    const std::uint64_t sim_small = allocsOf(
        [&] { simulateLayout(program, layout, small_stream, cache); });
    const std::uint64_t sim_big = allocsOf(
        [&] { simulateLayout(program, layout, big_stream, cache); });
    EXPECT_LE(sim_big, sim_small + kGrowthSlack);
}

TEST(AllocBound, GbscPlacementHasAFixedBudgetPerMerge)
{
    // Per merge: two chunk-span vectors, the cost vector and the
    // merged node. The rest is per placement (the working graph, the
    // final list, the layout).
    const ProfileBundle bundle(paperBenchmark("gcc", 0.05), EvalOptions{});
    const PlacementContext ctx = bundle.makeContext();
    const Gbsc gbsc;
    gbsc.place(ctx); // register the metrics it ticks
    const std::uint64_t allocs = allocsOf([&] { gbsc.place(ctx); });
    EXPECT_LT(allocs, 4000u);
}

TEST(AllocBound, LayoutValidateAllocatesAConstantAmount)
{
    auto validate_allocs = [](std::size_t procs) {
        Program program("validate");
        for (std::size_t i = 0; i < procs; ++i)
            program.addProcedure("procedure_" + std::to_string(i), 100);
        const Layout layout = Layout::defaultOrder(program, 32);
        return allocsOf([&] { layout.validate(program, 32); });
    };
    const std::uint64_t small = validate_allocs(500);
    const std::uint64_t big = validate_allocs(2000);
    EXPECT_EQ(big, small);
    EXPECT_LE(small, 2u);
}

} // namespace
} // namespace topo
