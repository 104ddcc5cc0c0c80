#include "topo/profile/collector.hh"

#include "topo/profile/wcg_builder.hh"
#include "topo/util/error.hh"

namespace topo
{

ProfileCollector::ProfileCollector(const Program &program,
                                   const CollectorOptions &options)
    : program_(program),
      chunks_(std::make_unique<ChunkMap>(program, options.chunk_bytes))
{
    TrgBuildOptions trg_options;
    trg_options.byte_budget = options.byte_budget;
    trg_options.popular = options.popular;
    trgs_ = std::make_unique<TrgAccumulator>(program, *chunks_,
                                             trg_options);
    resetSession();
}

ProfileCollector::~ProfileCollector() = default;

void
ProfileCollector::resetSession()
{
    session_ = TraceProfile{};
    session_.stats = TraceStats(program_.procCount());
    session_.wcg = WeightedGraph(program_.procCount());
    last_proc_ = kInvalidProc;
}

void
ProfileCollector::onRun(ProcId proc, std::uint32_t offset,
                        std::uint32_t length)
{
    // The accumulator checks the run before anything counts it, so a
    // rejected run leaves the whole session unchanged.
    trgs_->onRun(proc, offset, length);
    session_.stats.addRun(proc, length);
    countTransition(last_proc_, proc, session_.wcg);
}

void
ProfileCollector::onProcedure(ProcId proc)
{
    require(proc < program_.procCount(),
            "ProfileCollector: invalid procedure id");
    onRun(proc, 0, program_.proc(proc).size_bytes);
}

void
ProfileCollector::onTrace(const Trace &trace)
{
    require(trace.procCount() == program_.procCount(),
            "ProfileCollector: program/trace mismatch");
    for (const TraceEvent &ev : trace.events())
        onRun(ev.proc, ev.offset, ev.length);
}

TraceProfile
ProfileCollector::take()
{
    session_.setTrgs(trgs_->take());
    TraceProfile profile = std::move(session_);
    resetSession();
    return profile;
}

} // namespace topo
