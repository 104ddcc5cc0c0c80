#include "topo/profile/trace_profile.hh"

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
    stats.merge(other.stats);
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
