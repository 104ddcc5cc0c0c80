#include "topo/profile/wcg_builder.hh"

#include "topo/obs/log.hh"
#include "topo/obs/metrics.hh"
#include "topo/obs/phase_timer.hh"
#include "topo/util/error.hh"

namespace topo
{

WeightedGraph
buildWcg(const Program &program, const Trace &trace)
{
    require(trace.procCount() == program.procCount(),
            "buildWcg: program/trace mismatch");
    PhaseTimer timer("wcg_build");
    WeightedGraph wcg(program.procCount());
    ProcId last = kInvalidProc;
    for (const TraceEvent &ev : trace.events())
        countTransition(last, ev.proc, wcg);

    MetricsRegistry &metrics = MetricsRegistry::current();
    metrics.counter("wcg.builds").add();
    metrics.counter("wcg.events").add(trace.size());
    metrics.counter("wcg.edges").add(wcg.edgeCount());
    if (logEnabled(LogLevel::kDebug)) {
        logDebug("wcg", "built WCG",
                 {{"events", trace.size()},
                  {"edges", wcg.edgeCount()},
                  {"ms", timer.elapsedMs()}});
    }
    return wcg;
}

} // namespace topo
