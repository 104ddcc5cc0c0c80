#include "topo/exec/exec.hh"

#include <memory>
#include <mutex>

namespace topo
{

namespace
{

std::mutex g_exec_mutex;
int g_jobs = 1;
std::unique_ptr<ThreadPool> g_pool;

} // namespace

void
initExec(const Options &opts, int fallback)
{
    if (!opts.has("jobs") && fallback == 0)
        return;
    const std::int64_t jobs = opts.getInt("jobs", fallback);
    if (jobs < 1 || jobs > 4096)
        fail("--jobs must be an integer in [1, 4096], got " +
                 std::to_string(jobs));
    setExecJobs(static_cast<int>(jobs));
}

void
setExecJobs(int jobs)
{
    require(jobs >= 1, "setExecJobs: jobs must be >= 1");
    const std::lock_guard<std::mutex> lock(g_exec_mutex);
    if (jobs == g_jobs && g_pool)
        return;
    g_pool.reset();
    g_jobs = jobs;
}

int
execJobs()
{
    const std::lock_guard<std::mutex> lock(g_exec_mutex);
    return g_jobs;
}

ThreadPool &
execPool()
{
    const std::lock_guard<std::mutex> lock(g_exec_mutex);
    if (!g_pool)
        g_pool = std::make_unique<ThreadPool>(g_jobs);
    return *g_pool;
}

void
parallelFor(std::size_t count,
            const std::function<void(std::size_t)> &body)
{
    if (count == 0)
        return;
    if (execJobs() == 1 || ThreadPool::onWorkerThread()) {
        for (std::size_t i = 0; i < count; ++i)
            body(i);
        return;
    }
    execPool().parallelFor(count, body);
}

} // namespace topo
