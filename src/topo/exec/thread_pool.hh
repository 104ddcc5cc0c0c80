/**
 * @file
 * Fixed-size thread pool with a deterministic fork/join primitive.
 *
 * The pool owns `jobs - 1` worker threads; the caller of parallelFor
 * participates as the jobs-th lane, so `jobs == 1` spawns no threads
 * at all and runs every task inline on the calling thread — that path
 * is bit-identical to a plain serial loop, which is the foundation of
 * the `--jobs N` ≡ `--jobs 1` determinism contract (DESIGN.md §9).
 *
 * Tasks are claimed from a shared atomic index (queue order, lowest
 * index first), so the pool load-balances uneven task costs without
 * any per-task allocation. Nested parallelFor calls from inside a
 * worker thread degrade to inline execution instead of deadlocking on
 * the single shared batch slot.
 */

#ifndef TOPO_EXEC_THREAD_POOL_HH
#define TOPO_EXEC_THREAD_POOL_HH

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace topo
{

/** `max(1, std::thread::hardware_concurrency())` — the --jobs default. */
int hardwareJobs();

/**
 * Shared-index fork/join pool. One batch is active at a time; workers
 * sleep between batches. Construction with jobs == 1 is free (no
 * threads, no synchronisation on the fast path).
 */
class ThreadPool
{
  public:
    /** @param jobs Total lanes including the caller; must be >= 1. */
    explicit ThreadPool(int jobs);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Total lanes (worker threads + the participating caller). */
    int jobs() const { return jobs_; }

    /**
     * Run body(i) for every i in [0, count), blocking until all tasks
     * finish. Tasks are claimed in index order; with jobs == 1 (or
     * when called from inside a pool worker) the loop runs inline in
     * strict index order on the calling thread.
     *
     * If any task throws, the exception thrown by the lowest task
     * index is rethrown after the batch drains (remaining tasks still
     * run; determinism of side effects is the task author's concern).
     */
    void parallelFor(std::size_t count,
                     const std::function<void(std::size_t)> &body);

    /**
     * True while the calling thread is executing a task of an active
     * batch — on a pool worker OR on the caller lane (parallelFor's
     * caller drains tasks too). Nested parallelFor calls check this
     * and degrade to an inline loop; a second batch on the pool while
     * one is active would corrupt the shared batch state.
     */
    static bool onWorkerThread();

  private:
    void workerLoop();
    /** Claim-and-run until the shared index exhausts @p count. */
    void drainBatch(const std::function<void(std::size_t)> &body,
                    std::size_t count);

    const int jobs_;
    std::vector<std::thread> workers_;

    std::mutex mutex_;
    std::condition_variable work_ready_;
    std::condition_variable batch_done_;
    bool stopping_ = false;

    /** Batch slot (guarded by mutex_ except the claim index). */
    std::uint64_t generation_ = 0;
    const std::function<void(std::size_t)> *body_ = nullptr;
    std::size_t count_ = 0;
    std::atomic<std::size_t> next_{0};
    int workers_active_ = 0;

    /** Lowest-index task failure, rethrown by parallelFor. */
    std::size_t error_index_ = 0;
    std::exception_ptr error_;
};

} // namespace topo

#endif // TOPO_EXEC_THREAD_POOL_HH
