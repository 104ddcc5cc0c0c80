/**
 * @file
 * Runs each timed pass on the CPUs that other tenants slow least.
 *
 * On a shared virtual machine a vCPU slows down when another guest's
 * work shares its physical core: the L1 and L2 caches are split with a
 * stranger, and a pass whose working set lives in L2 (TRG accumulation,
 * the cache model, k-means over window features) runs up to twice as
 * slow. The slowdown differs per vCPU and lasts from a fraction of a
 * second to minutes, and the guest's scheduler cannot see it.
 *
 * QuietCpus times the same L2-resident pointer chase on every CPU the
 * process may use and then confines all of the process's threads to the
 * fastest ones. It changes where the library runs, never what it
 * computes.
 */

#ifndef PERFBENCH_QUIET_CPU_HH
#define PERFBENCH_QUIET_CPU_HH

#include <cstdint>
#include <vector>

namespace perfbench
{

class QuietCpus
{
  public:
    /** Remember the CPUs the process may use now; build the probe. */
    QuietCpus();

    /**
     * Probe every usable CPU and pin every thread of the process to the
     * @p lanes fastest. Every usable CPU stays allowed when the
     * affinity calls are not permitted or fewer CPUs than lanes exist.
     */
    void pin(int lanes);

  private:
    /** Time one pointer chase on @p cpu, in ms. */
    double probe(int cpu);

    std::vector<int> cpus_;
    std::vector<std::uint32_t> ring_;
};

} // namespace perfbench

#endif // PERFBENCH_QUIET_CPU_HH
