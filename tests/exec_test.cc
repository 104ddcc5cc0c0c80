/**
 * @file
 * Tests for the topo::exec execution layer: ThreadPool batch
 * semantics, deterministic parallelMap ordering, exception
 * propagation, nested-call degradation, --jobs validation, and the
 * metrics scoping/merge machinery the determinism contract
 * (DESIGN.md §9) rests on.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

#include "topo/exec/exec.hh"
#include "topo/obs/metrics.hh"
#include "topo/util/error.hh"
#include "topo/util/stats.hh"

namespace topo
{
namespace
{

/** Restore the process-wide jobs setting when a test exits. */
struct JobsGuard
{
    explicit JobsGuard(int jobs) { setExecJobs(jobs); }
    ~JobsGuard() { setExecJobs(1); }
};

TEST(ThreadPool, RunsEveryIndexExactlyOnce)
{
    ThreadPool pool(4);
    constexpr std::size_t kCount = 1000;
    std::vector<std::atomic<int>> hits(kCount);
    pool.parallelFor(kCount,
                     [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < kCount; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, SerialPoolRunsInlineInIndexOrder)
{
    ThreadPool pool(1);
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<std::size_t> order;
    pool.parallelFor(16, [&](std::size_t i) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        order.push_back(i);
    });
    ASSERT_EQ(order.size(), 16u);
    for (std::size_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(order[i], i);
}

TEST(ThreadPool, ReusableAcrossBatches)
{
    ThreadPool pool(3);
    for (int round = 0; round < 50; ++round) {
        std::atomic<int> sum{0};
        pool.parallelFor(
            17, [&](std::size_t i) { sum += static_cast<int>(i); });
        EXPECT_EQ(sum.load(), 17 * 16 / 2);
    }
}

TEST(ThreadPool, BackToBackBatchesRunEachIndexOnce)
{
    // Small and large batches in quick succession: a worker that wakes
    // after a batch has finished must neither run its body again nor
    // claim an index of the next batch.
    ThreadPool pool(4);
    std::vector<std::atomic<int>> hits(64);
    for (int round = 0; round < 20000; ++round) {
        const std::size_t count = round % 2 ? 64 : 2;
        for (std::atomic<int> &hit : hits)
            hit.store(0);
        pool.parallelFor(count, [&](std::size_t i) { hits[i] += 1; });
        for (std::size_t i = 0; i < count; ++i)
            ASSERT_EQ(hits[i].load(), 1) << "round " << round;
    }
}

TEST(ThreadPool, NestedCallsDegradeToInlineOnEveryLane)
{
    // A nested parallelFor from any lane of an active batch — pool
    // worker or the participating caller — must run inline rather
    // than re-entering the pool (that corrupted the shared batch
    // state once; this is a regression test).
    ThreadPool pool(4);
    std::atomic<int> inner_total{0};
    pool.parallelFor(8, [&](std::size_t) {
        EXPECT_TRUE(ThreadPool::onWorkerThread());
        pool.parallelFor(8, [&](std::size_t) { ++inner_total; });
    });
    EXPECT_EQ(inner_total.load(), 64);
    EXPECT_FALSE(ThreadPool::onWorkerThread());
}

TEST(ThreadPool, LowestIndexExceptionWins)
{
    ThreadPool pool(4);
    try {
        pool.parallelFor(64, [&](std::size_t i) {
            if (i == 7 || i == 40)
                throw std::runtime_error("task " + std::to_string(i));
        });
        FAIL() << "expected an exception";
    } catch (const std::runtime_error &err) {
        EXPECT_STREQ(err.what(), "task 7");
    }
    // The pool survives a failed batch.
    std::atomic<int> sum{0};
    pool.parallelFor(10, [&](std::size_t) { ++sum; });
    EXPECT_EQ(sum.load(), 10);
}

TEST(Exec, ParallelMapOrdersResultsByTaskIndex)
{
    const JobsGuard guard(4);
    const std::vector<std::size_t> mapped =
        parallelMap(100, [](std::size_t i) { return i * i; });
    ASSERT_EQ(mapped.size(), 100u);
    for (std::size_t i = 0; i < mapped.size(); ++i)
        EXPECT_EQ(mapped[i], i * i);
}

TEST(Exec, ParallelMapSupportsMoveOnlyResults)
{
    const JobsGuard guard(2);
    const auto mapped = parallelMap(8, [](std::size_t i) {
        return std::make_unique<std::size_t>(i);
    });
    ASSERT_EQ(mapped.size(), 8u);
    for (std::size_t i = 0; i < mapped.size(); ++i)
        EXPECT_EQ(*mapped[i], i);
}

TEST(Exec, InitExecValidatesJobs)
{
    const JobsGuard guard(1);
    Options opts;
    opts.set("jobs", "0");
    EXPECT_THROW(initExec(opts, 0), TopoError);
    opts.set("jobs", "-3");
    EXPECT_THROW(initExec(opts, 0), TopoError);
    opts.set("jobs", "abc");
    EXPECT_THROW(initExec(opts, 0), TopoError);
    opts.set("jobs", "5000");
    EXPECT_THROW(initExec(opts, 0), TopoError);
    opts.set("jobs", "3");
    initExec(opts, 0);
    EXPECT_EQ(execJobs(), 3);
}

TEST(Exec, InitExecFallbackZeroKeepsCurrentSetting)
{
    const JobsGuard guard(2);
    const Options opts; // no --jobs anywhere
    initExec(opts, 0);
    EXPECT_EQ(execJobs(), 2);
    initExec(opts, 4); // tools pass hardwareJobs() as the fallback
    EXPECT_EQ(execJobs(), 4);
}

TEST(Exec, HardwareJobsIsPositive)
{
    EXPECT_GE(hardwareJobs(), 1);
}

TEST(Metrics, ScopeRedirectsCurrentRegistry)
{
    MetricsRegistry local;
    EXPECT_EQ(&MetricsRegistry::current(), &MetricsRegistry::global());
    {
        MetricsScope scope(local);
        EXPECT_EQ(&MetricsRegistry::current(), &local);
        MetricsRegistry inner;
        {
            MetricsScope nested(inner);
            EXPECT_EQ(&MetricsRegistry::current(), &inner);
        }
        EXPECT_EQ(&MetricsRegistry::current(), &local);
    }
    EXPECT_EQ(&MetricsRegistry::current(), &MetricsRegistry::global());
}

TEST(Metrics, ScopeIsPerThread)
{
    MetricsRegistry local;
    MetricsScope scope(local);
    MetricsRegistry *seen = nullptr;
    std::thread other([&] { seen = &MetricsRegistry::current(); });
    other.join();
    // Another thread without a scope of its own sees the global.
    EXPECT_EQ(seen, &MetricsRegistry::global());
}

TEST(Metrics, MergeFromCombinesAllKinds)
{
    MetricsRegistry a, b;
    a.counter("shared").add(3);
    b.counter("shared").add(4);
    b.counter("only_b").add(7);
    a.gauge("g").set(1.0);
    b.gauge("g").set(2.0);
    for (int i = 1; i <= 10; ++i)
        a.histogram("h").observe(i);
    for (int i = 11; i <= 30; ++i)
        b.histogram("h").observe(i);

    a.mergeFrom(b);
    EXPECT_EQ(a.counter("shared").value(), 7u);
    EXPECT_EQ(a.counter("only_b").value(), 7u);
    EXPECT_DOUBLE_EQ(a.gauge("g").value(), 2.0);
    const RunningStats stats = a.histogram("h").stats();
    EXPECT_EQ(stats.count(), 30u);
    EXPECT_DOUBLE_EQ(stats.min(), 1.0);
    EXPECT_DOUBLE_EQ(stats.max(), 30.0);
    EXPECT_NEAR(stats.mean(), 15.5, 1e-9);
}

TEST(Metrics, FixedOrderMergeIsReproducible)
{
    // The determinism contract: per-task registries merged in task
    // order produce a snapshot that depends only on the per-task
    // streams, never on scheduling. Emulate two identical parallel
    // runs and require byte-identical JSON.
    const auto run = [] {
        MetricsRegistry parent;
        MetricsRegistry tasks[3];
        for (int t = 0; t < 3; ++t) {
            for (int i = 0; i < 500; ++i)
                tasks[t].histogram("h").observe(t * 1000 + i);
            tasks[t].counter("c").add(static_cast<std::uint64_t>(t));
        }
        for (int t = 0; t < 3; ++t)
            parent.mergeFrom(tasks[t]);
        return parent.toJson().toString();
    };
    EXPECT_EQ(run(), run());
}

TEST(Stats, RunningStatsMergeMatchesSerialAccumulation)
{
    RunningStats serial, left, right;
    for (int i = 0; i < 1000; ++i) {
        const double v = 0.25 * i - 100.0;
        serial.add(v);
        (i < 400 ? left : right).add(v);
    }
    left.merge(right);
    EXPECT_EQ(left.count(), serial.count());
    EXPECT_DOUBLE_EQ(left.min(), serial.min());
    EXPECT_DOUBLE_EQ(left.max(), serial.max());
    EXPECT_NEAR(left.mean(), serial.mean(), 1e-9);
    EXPECT_NEAR(left.stddev(), serial.stddev(), 1e-9);

    RunningStats empty;
    left.merge(empty); // merging an empty side is a no-op
    EXPECT_EQ(left.count(), serial.count());
}

} // namespace
} // namespace topo
