#include "topo/profile/trace_profile.hh"

#include "topo/util/error.hh"

namespace topo
{

void
TraceProfile::setTrgs(TrgBuildResult trgs)
{
    trg_select = std::move(trgs.select);
    trg_place = std::move(trgs.place);
    queue_procs_sum =
        trgs.avg_queue_procs * static_cast<double>(trgs.proc_steps);
    proc_steps = trgs.proc_steps;
    proc_evictions = trgs.proc_evictions;
    chunk_evictions = trgs.chunk_evictions;
}

void
TraceProfile::merge(const TraceProfile &other)
{
    require(stats.run_count.size() == other.stats.run_count.size(),
            "TraceProfile::merge: the profiles disagree on the "
            "procedure count");
    for (std::size_t i = 0; i < other.stats.run_count.size(); ++i) {
        if (stats.run_count[i] == 0 && other.stats.run_count[i] > 0)
            ++stats.procs_touched;
        stats.run_count[i] += other.stats.run_count[i];
        stats.bytes_fetched[i] += other.stats.bytes_fetched[i];
    }
    stats.total_runs += other.stats.total_runs;
    stats.total_bytes += other.stats.total_bytes;
    wcg.addGraph(other.wcg);
    trg_select.addGraph(other.trg_select);
    trg_place.addGraph(other.trg_place);
    pairs.merge(other.pairs);
    queue_procs_sum += other.queue_procs_sum;
    proc_steps += other.proc_steps;
    proc_evictions += other.proc_evictions;
    chunk_evictions += other.chunk_evictions;
}

} // namespace topo
