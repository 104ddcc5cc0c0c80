#include "topo/profile/wcg_builder.hh"

#include "topo/exec/exec.hh"
#include "topo/obs/log.hh"
#include "topo/obs/metrics.hh"
#include "topo/obs/phase_timer.hh"
#include "topo/util/error.hh"

namespace topo
{

void
countTransitions(const std::vector<TraceEvent> &events, std::size_t begin,
                 std::size_t end, ProcId last, WeightedGraph &wcg)
{
    for (std::size_t i = begin; i < end; ++i) {
        const ProcId proc = events[i].proc;
        if (last != kInvalidProc && proc != last)
            wcg.addWeight(last, proc, 1.0);
        last = proc;
    }
}

WeightedGraph
buildWcg(const Program &program, const Trace &trace)
{
    require(trace.procCount() == program.procCount(),
            "buildWcg: program/trace mismatch");
    PhaseTimer timer("wcg_build");
    WeightedGraph wcg(program.procCount());
    const std::vector<TraceEvent> &events = trace.events();
    const std::size_t shard_count = eventShardCount(events.size());
    if (shard_count <= 1) {
        countTransitions(events, 0, events.size(), kInvalidProc, wcg);
    } else {
        std::vector<WeightedGraph> shards(
            shard_count, WeightedGraph(program.procCount()));
        parallelFor(shard_count, [&](std::size_t s) {
            const std::size_t begin = s * events.size() / shard_count;
            const std::size_t end =
                (s + 1) * events.size() / shard_count;
            const ProcId last =
                begin ? events[begin - 1].proc : kInvalidProc;
            countTransitions(events, begin, end, last, shards[s]);
        });
        for (const WeightedGraph &shard : shards)
            wcg.addGraph(shard);
    }

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
