#include "quiet_cpu.hh"

#include <dirent.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <numeric>

#include "tracer.hh"
#include "topo/util/rng.hh"

namespace perfbench
{

namespace
{

/** Ring of 256 KiB entries: 1 MiB, inside one core's L2. */
constexpr std::size_t kRingEntries = 256 * 1024;
/** Steps per probe: about a millisecond on an idle core. */
constexpr int kProbeSteps = 200000;

cpu_set_t
maskOf(const std::vector<int> &cpus)
{
    cpu_set_t mask;
    CPU_ZERO(&mask);
    for (const int cpu : cpus)
        CPU_SET(cpu, &mask);
    return mask;
}

bool
pinThread(pid_t tid, const cpu_set_t &mask)
{
    return ::sched_setaffinity(tid, sizeof(mask), &mask) == 0;
}

/**
 * Pin every thread of this process (threads started later inherit).
 * A thread that cannot be pinned keeps the CPUs it had.
 */
void
pinProcess(const cpu_set_t &mask)
{
    DIR *dir = ::opendir("/proc/self/task");
    if (dir == nullptr) {
        pinThread(0, mask);
        return;
    }
    while (const dirent *entry = ::readdir(dir)) {
        const pid_t tid = static_cast<pid_t>(std::atoi(entry->d_name));
        if (tid > 0)
            pinThread(tid, mask);
    }
    ::closedir(dir);
}

} // namespace

QuietCpus::QuietCpus()
{
    cpu_set_t mask;
    if (::sched_getaffinity(0, sizeof(mask), &mask) == 0) {
        for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
            if (CPU_ISSET(cpu, &mask))
                cpus_.push_back(cpu);
        }
    }
    // One cycle through a random permutation, so every step is a
    // dependent load the prefetchers cannot guess.
    std::vector<std::uint32_t> order(kRingEntries);
    std::iota(order.begin(), order.end(), 0u);
    topo::Rng rng(0x9e3779b97f4a7c15ULL);
    for (std::size_t i = order.size() - 1; i > 0; --i)
        std::swap(order[i], order[rng.next() % (i + 1)]);
    ring_.resize(kRingEntries);
    for (std::size_t i = 0; i < order.size(); ++i)
        ring_[order[i]] = order[(i + 1) % order.size()];
}

double
QuietCpus::probe(int cpu)
{
    if (!pinThread(0, maskOf({cpu})))
        return -1.0;
    std::uint32_t at = 0;
    for (std::size_t i = 0; i < kRingEntries; ++i) // bring it into L2
        at = ring_[at];
    const Clock::time_point start = Clock::now();
    for (int i = 0; i < kProbeSteps; ++i)
        at = ring_[at];
    const double ms = msSince(start);
    // Keep the chase from being optimised away.
    if (at == ring_.size())
        std::abort();
    return ms;
}

void
QuietCpus::pin(int lanes)
{
    const auto wanted = static_cast<std::size_t>(std::max(lanes, 1));
    if (cpus_.size() < wanted)
        return;
    std::vector<double> probe_ms;
    for (const int cpu : cpus_) {
        const double ms = probe(cpu);
        if (ms < 0.0) {
            pinProcess(maskOf(cpus_));
            return;
        }
        probe_ms.push_back(ms);
    }
    std::vector<std::size_t> rank(cpus_.size());
    std::iota(rank.begin(), rank.end(), 0u);
    std::stable_sort(rank.begin(), rank.end(), [&](std::size_t a,
                                                   std::size_t b) {
        return probe_ms[a] < probe_ms[b];
    });
    std::vector<int> chosen;
    for (std::size_t i = 0; i < wanted; ++i)
        chosen.push_back(cpus_[rank[i]]);
    pinProcess(maskOf(chosen));
}

} // namespace perfbench
