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

namespace
{

/** Shards below this many events are not worth the plan replay. */
constexpr std::size_t kMinEventsPerShard = 8192;

std::vector<std::uint32_t>
procSizesOf(const Program &program)
{
    std::vector<std::uint32_t> sizes(program.procCount());
    for (std::size_t i = 0; i < program.procCount(); ++i)
        sizes[i] = program.proc(static_cast<ProcId>(i)).size_bytes;
    return sizes;
}

std::vector<std::uint32_t>
chunkSizesOf(const ChunkMap &chunks)
{
    std::vector<std::uint32_t> sizes(chunks.chunkCount());
    for (std::size_t c = 0; c < chunks.chunkCount(); ++c)
        sizes[c] = chunks.chunkSizeBytes(static_cast<ChunkId>(c));
    return sizes;
}

} // namespace

TrgStateWalker::TrgStateWalker(const Program &program,
                               const ChunkMap &chunks,
                               const TrgBuildOptions &options)
    : program_(program),
      chunks_(chunks),
      popular_(options.popular),
      proc_q_(procSizesOf(program), options.byte_budget),
      chunk_q_(chunkSizesOf(chunks), options.byte_budget),
      need_proc_pass_(options.build_select ||
                      static_cast<bool>(options.observer)),
      build_place_(options.build_place),
      chunk_bytes_(chunks.chunkBytes())
{
    if (popular_) {
        require(popular_->size() == program.procCount(),
                "TrgStateWalker: popularity mask size mismatch");
    }
}

void
TrgStateWalker::advance(const TraceEvent &ev)
{
    require(ev.proc < program_.procCount(),
            "TrgStateWalker: invalid proc");
    require(ev.length > 0, "TrgStateWalker: zero-length run");
    require(static_cast<std::uint64_t>(ev.offset) + ev.length <=
                program_.proc(ev.proc).size_bytes,
            "TrgStateWalker: run exceeds procedure bounds");
    if (popular_ && !(*popular_)[ev.proc])
        return;
    if (ev == last_event_ &&
        (!build_place_ || chunk_q_.contains(first_chunk_)))
        return;
    if (need_proc_pass_ && ev.proc != last_proc_)
        proc_q_.touch(ev.proc);
    last_proc_ = ev.proc;
    last_event_ = ev;
    if (build_place_) {
        const std::uint32_t first = ev.offset / chunk_bytes_;
        const std::uint32_t last =
            (ev.offset + ev.length - 1) / chunk_bytes_;
        first_chunk_ = chunks_.chunkId(ev.proc, first);
        for (std::uint32_t idx = first; idx <= last; ++idx) {
            const ChunkId chunk = chunks_.chunkId(ev.proc, idx);
            if (chunk == last_chunk_)
                continue;
            chunk_q_.touch(chunk);
            last_chunk_ = chunk;
        }
    }
}

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
    TrgStateWalker walker(program, chunks, options);
    std::size_t next_shard = 0;

    for (std::size_t i = 0; i <= n; ++i) {
        while (next_shard < shard_count &&
               i == next_shard * n / shard_count) {
            TraceShard &shard = shards[next_shard];
            shard.begin = i;
            shard.end = (next_shard + 1) * n / shard_count;
            shard.proc_queue = walker.procQueue();
            shard.chunk_queue = walker.chunkQueue();
            shard.last_proc = walker.lastProc();
            shard.last_chunk = walker.lastChunk();
            ++next_shard;
        }
        if (i == n)
            break;
        walker.advance(events[i]);
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

    const std::size_t jobs = static_cast<std::size_t>(execJobs());
    const std::size_t shard_count =
        std::min(jobs, trace.size() / kMinEventsPerShard);
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
