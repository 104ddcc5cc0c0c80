/**
 * @file
 * Summary statistics over a trace: dynamic reference counts per
 * procedure, bytes fetched, distinct procedures touched. Feeds the
 * popularity selection and the Table 1 report.
 */

#ifndef TOPO_TRACE_TRACE_STATS_HH
#define TOPO_TRACE_TRACE_STATS_HH

#include <cstdint>
#include <vector>

#include "topo/program/program.hh"
#include "topo/trace/trace.hh"

namespace topo
{

/**
 * Per-trace summary. addRun() and merge() are the only places counts
 * are accumulated: computeTraceStats, ProfileCollector and
 * TraceProfile::merge all go through them.
 */
struct TraceStats
{
    /** Runs per procedure. */
    std::vector<std::uint64_t> run_count;
    /** Bytes fetched per procedure. */
    std::vector<std::uint64_t> bytes_fetched;
    /** Total number of runs. */
    std::uint64_t total_runs = 0;
    /** Total bytes fetched. */
    std::uint64_t total_bytes = 0;

    TraceStats() = default;

    /** Empty statistics of a program with @p proc_count procedures. */
    explicit TraceStats(std::size_t proc_count)
        : run_count(proc_count, 0), bytes_fetched(proc_count, 0)
    {
    }

    /** Count one run of @p length bytes of procedure @p proc. */
    void addRun(ProcId proc, std::uint32_t length);

    /** Add the counts of @p other (statistics of the same program). */
    void merge(const TraceStats &other);

    /** Number of procedures referenced at least once. */
    std::size_t procsTouched() const;
};

/** Compute summary statistics for a trace. */
TraceStats computeTraceStats(const Program &program, const Trace &trace);

} // namespace topo

#endif // TOPO_TRACE_TRACE_STATS_HH
