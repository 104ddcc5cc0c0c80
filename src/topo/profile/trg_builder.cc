#include "topo/profile/trg_builder.hh"

#include <algorithm>
#include <memory>

#include "topo/exec/exec.hh"
#include "topo/obs/log.hh"
#include "topo/obs/metrics.hh"
#include "topo/obs/phase_timer.hh"
#include "topo/profile/trg_accumulator.hh"
#include "topo/util/error.hh"

namespace topo
{

std::vector<TraceShard>
planTraceShards(const Program &program, const ChunkMap &chunks,
                const Trace &trace, const TrgBuildOptions &options,
                std::size_t shard_count)
{
    require(shard_count >= 1, "planTraceShards: zero shard count");
    require(trace.procCount() == program.procCount(),
            "planTraceShards: program/trace mismatch");
    PhaseTimer timer("trg_shard_plan");
    const std::vector<TraceEvent> &events = trace.events();
    const std::size_t n = events.size();

    std::vector<TraceShard> shards(shard_count);
    TrgAccumulator walk(program, chunks, options);
    std::size_t i = 0;
    for (std::size_t s = 0; s < shard_count; ++s) {
        TraceShard &shard = shards[s];
        shard.begin = s * n / shard_count;
        shard.end = (s + 1) * n / shard_count;
        for (; i < shard.begin; ++i)
            walk.warm(events[i]);
        shard.proc_queue = walk.procQueue();
        shard.chunk_queue = walk.chunkQueue();
        shard.last_proc = walk.lastProc();
        shard.last_chunk = walk.lastChunk();
    }
    return shards;
}

TrgBuildResult
buildTrgs(const Program &program, const ChunkMap &chunks, const Trace &trace,
          const TrgBuildOptions &options)
{
    require(trace.procCount() == program.procCount(),
            "buildTrgs: program/trace mismatch");
    PhaseTimer timer("trg_build");

    const std::size_t shard_count = eventShardCount(trace.size());
    TrgBuildResult result;
    if (shard_count <= 1 || options.observer) {
        // Serial walk: the reference semantics. The observer hook sees
        // every step in order, so it pins the build to this path.
        TrgAccumulator accumulator(program, chunks, options);
        accumulator.onTrace(trace);
        result = accumulator.take();
    } else {
        const std::vector<TraceShard> shards =
            planTraceShards(program, chunks, trace, options, shard_count);
        const std::vector<TraceEvent> &events = trace.events();
        std::vector<std::unique_ptr<TrgAccumulator>> accumulators(
            shards.size());
        parallelFor(shards.size(), [&](std::size_t s) {
            auto acc = std::make_unique<TrgAccumulator>(program, chunks,
                                                        options);
            const TraceShard &shard = shards[s];
            acc->seedState(shard.proc_queue, shard.chunk_queue,
                           shard.last_proc, shard.last_chunk);
            for (std::size_t i = shard.begin; i < shard.end; ++i)
                acc->onRun(events[i].proc, events[i].offset,
                           events[i].length);
            accumulators[s] = std::move(acc);
        });
        for (std::size_t s = 1; s < accumulators.size(); ++s)
            accumulators[0]->merge(*accumulators[s]);
        result = accumulators[0]->take();
        MetricsRegistry::current().counter("trg.shards")
            .add(shards.size());
    }

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
                  {"shards", std::max<std::size_t>(shard_count, 1)},
                  {"ms", timer.elapsedMs()}});
    }
    return result;
}

} // namespace topo
