#include "topo/trace/trace_stats.hh"

#include "topo/util/error.hh"

namespace topo
{

void
TraceStats::addRun(ProcId proc, std::uint32_t length)
{
    run_count[proc] += 1;
    bytes_fetched[proc] += length;
    total_runs += 1;
    total_bytes += length;
}

void
TraceStats::merge(const TraceStats &other)
{
    require(run_count.size() == other.run_count.size(),
            "TraceStats::merge: the statistics disagree on the "
            "procedure count");
    for (std::size_t i = 0; i < other.run_count.size(); ++i) {
        run_count[i] += other.run_count[i];
        bytes_fetched[i] += other.bytes_fetched[i];
    }
    total_runs += other.total_runs;
    total_bytes += other.total_bytes;
}

std::size_t
TraceStats::procsTouched() const
{
    std::size_t touched = 0;
    for (std::uint64_t runs : run_count)
        touched += runs > 0 ? 1 : 0;
    return touched;
}

TraceStats
computeTraceStats(const Program &program, const Trace &trace)
{
    require(program.procCount() == trace.procCount(),
            "computeTraceStats: program/trace mismatch");
    TraceStats stats(program.procCount());
    for (const TraceEvent &ev : trace.events())
        stats.addRun(ev.proc, ev.length);
    return stats;
}

} // namespace topo
