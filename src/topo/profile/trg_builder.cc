#include "topo/profile/trg_builder.hh"

#include "topo/obs/log.hh"
#include "topo/obs/metrics.hh"
#include "topo/obs/phase_timer.hh"
#include "topo/profile/trg_accumulator.hh"
#include "topo/util/error.hh"

namespace topo
{

TrgBuildResult
buildTrgs(const Program &program, const ChunkMap &chunks, const Trace &trace,
          const TrgBuildOptions &options)
{
    require(trace.procCount() == program.procCount(),
            "buildTrgs: program/trace mismatch");
    PhaseTimer timer("trg_build");

    TrgAccumulator accumulator(program, chunks, options);
    accumulator.onTrace(trace);
    TrgBuildResult result = accumulator.take();

    MetricsRegistry &metrics = MetricsRegistry::current();
    metrics.counter("trg.builds").add();
    metrics.counter("trg.events").add(trace.size());
    metrics.counter("trg.proc_steps").add(result.proc_steps);
    metrics.counter("trg.select_edges").add(result.select.edgeCount());
    metrics.counter("trg.place_edges").add(result.place.edgeCount());
    metrics.counter("trg.proc_evictions").add(result.proc_evictions);
    metrics.counter("trg.chunk_evictions").add(result.chunk_evictions);
    metrics.gauge("trg.avg_queue_procs").set(result.avg_queue_procs);

    if (logEnabled(LogLevel::kDebug)) {
        logDebug("trg", "built TRGs",
                 {{"events", trace.size()},
                  {"proc_steps", result.proc_steps},
                  {"select_edges", result.select.edgeCount()},
                  {"place_edges", result.place.edgeCount()},
                  {"avg_queue_procs", result.avg_queue_procs},
                  {"q_budget", options.byte_budget},
                  {"ms", timer.elapsedMs()}});
    }
    return result;
}

} // namespace topo
