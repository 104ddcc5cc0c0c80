#include "topo/profile/collector.hh"

#include "topo/util/error.hh"

namespace topo
{

ProfileCollector::ProfileCollector(const Program &program,
                                   const CollectorOptions &options)
    : program_(program),
      options_(options),
      chunks_(std::make_unique<ChunkMap>(program, options.chunk_bytes))
{
    TrgBuildOptions trg_options;
    trg_options.byte_budget = options.byte_budget;
    trg_options.build_select = options.build_select;
    trg_options.build_place = options.build_place;
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
    session_.stats.run_count.assign(program_.procCount(), 0);
    session_.stats.bytes_fetched.assign(program_.procCount(), 0);
    session_.wcg =
        WeightedGraph(options_.build_wcg ? program_.procCount() : 0);
    last_proc_ = kInvalidProc;
}

void
ProfileCollector::onRun(ProcId proc, std::uint32_t offset,
                        std::uint32_t length)
{
    require(proc < program_.procCount(),
            "ProfileCollector: invalid procedure id");
    require(length > 0, "ProfileCollector: zero-length run");
    require(static_cast<std::uint64_t>(offset) + length <=
                program_.proc(proc).size_bytes,
            "ProfileCollector: run exceeds procedure bounds");

    // Statistics (always full-program).
    TraceStats &stats = session_.stats;
    if (stats.run_count[proc] == 0)
        ++stats.procs_touched;
    ++stats.run_count[proc];
    stats.bytes_fetched[proc] += length;
    ++stats.total_runs;
    stats.total_bytes += length;

    // WCG: one transition per change of procedure.
    if (options_.build_wcg && last_proc_ != kInvalidProc &&
        last_proc_ != proc) {
        session_.wcg.addWeight(last_proc_, proc, 1.0);
    }
    last_proc_ = proc;

    // TRGs (respecting the popularity filter internally).
    trgs_->onRun(proc, offset, length);
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
