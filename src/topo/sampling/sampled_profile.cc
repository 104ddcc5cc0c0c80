#include "topo/sampling/sampled_profile.hh"

#include <cmath>

#include "topo/exec/exec.hh"
#include "topo/obs/metrics.hh"
#include "topo/obs/phase_timer.hh"
#include "topo/profile/trg_accumulator.hh"
#include "topo/profile/wcg_builder.hh"
#include "topo/util/error.hh"

namespace topo
{

namespace
{

/** Everything one segment contributes before weighting. */
struct SegmentProfile
{
    double scale = 0.0;
    WeightedGraph wcg;
    TrgBuildResult trgs;
};

} // namespace

SampledProfileResult
buildSampledProfile(const Program &program, const ChunkMap &chunks,
                    const Trace &trace, const SamplePlan &plan,
                    const TrgBuildOptions &options)
{
    require(plan.active(), "buildSampledProfile: inactive sample plan");
    require(plan.total_events == trace.size(),
            "buildSampledProfile: plan was built for a different trace");
    require(!options.observer,
            "buildSampledProfile: per-step observers require the exact "
            "build (sampling skips steps)");
    PhaseTimer timer("sample_profile");

    const std::vector<TraceEvent> &events = trace.events();
    const std::vector<SampleSegment> &segments = plan.segments;
    std::vector<SegmentProfile> profiles =
        parallelMap(segments.size(), [&](std::size_t s) {
            const SampleSegment &seg = segments[s];
            SegmentProfile profile;
            profile.scale = seg.scale;

            // Warm the segment's accumulator up to the measured range,
            // then count that range only. WCG transitions start from
            // the procedure of the event before the range.
            TrgAccumulator accumulator(program, chunks, options);
            for (std::size_t i = seg.warm_begin; i < seg.begin; ++i)
                accumulator.warm(events[i]);
            profile.wcg = WeightedGraph(program.procCount());
            ProcId last =
                seg.begin > 0 ? events[seg.begin - 1].proc : kInvalidProc;
            for (std::size_t i = seg.begin; i < seg.end; ++i) {
                accumulator.onRun(events[i].proc, events[i].offset,
                                  events[i].length);
                countTransition(last, events[i].proc, profile.wcg);
            }
            profile.trgs = accumulator.take();
            return profile;
        });

    SampledProfileResult result;
    result.wcg = WeightedGraph(program.procCount());
    result.trg_select = WeightedGraph(program.procCount());
    result.trg_place = WeightedGraph(chunks.chunkCount());
    double steps = 0.0;
    double queue_sum = 0.0;
    double proc_evictions = 0.0;
    double chunk_evictions = 0.0;
    for (const SegmentProfile &profile : profiles) {
        result.wcg.addGraph(profile.wcg, profile.scale);
        result.trg_select.addGraph(profile.trgs.select, profile.scale);
        result.trg_place.addGraph(profile.trgs.place, profile.scale);
        const double seg_steps =
            static_cast<double>(profile.trgs.proc_steps);
        steps += profile.scale * seg_steps;
        queue_sum +=
            profile.scale * profile.trgs.avg_queue_procs * seg_steps;
        proc_evictions +=
            profile.scale *
            static_cast<double>(profile.trgs.proc_evictions);
        chunk_evictions +=
            profile.scale *
            static_cast<double>(profile.trgs.chunk_evictions);
    }
    result.avg_queue_procs = steps > 0.0 ? queue_sum / steps : 0.0;
    result.proc_steps =
        static_cast<std::uint64_t>(std::llround(steps));
    result.proc_evictions =
        static_cast<std::uint64_t>(std::llround(proc_evictions));
    result.chunk_evictions =
        static_cast<std::uint64_t>(std::llround(chunk_evictions));

    MetricsRegistry &metrics = MetricsRegistry::current();
    metrics.counter("sampling.profiles").add();
    metrics.counter("sampling.profile_segments").add(segments.size());
    return result;
}

TraceProfile
buildTraceProfile(const Program &program, const ChunkMap &chunks,
                  const Trace &trace, TraceStats stats,
                  const TrgBuildOptions &trg, const PairBuildOptions *pairs,
                  const SamplingOptions &sampling, std::uint32_t line_bytes)
{
    TraceProfile profile;
    profile.stats = std::move(stats);
    if (sampling.active()) {
        require(pairs == nullptr,
                "the pair database has no sampled build; drop "
                "--build-pairs or --sample");
        const SamplePlan plan =
            buildSamplePlan(program, trace, line_bytes, sampling);
        SampledProfileResult sampled =
            buildSampledProfile(program, chunks, trace, plan, trg);
        profile.wcg = std::move(sampled.wcg);
        profile.trg_select = std::move(sampled.trg_select);
        profile.trg_place = std::move(sampled.trg_place);
        profile.queue_procs_sum = sampled.avg_queue_procs *
                                  static_cast<double>(sampled.proc_steps);
        profile.proc_steps = sampled.proc_steps;
        profile.proc_evictions = sampled.proc_evictions;
        profile.chunk_evictions = sampled.chunk_evictions;
        return profile;
    }
    profile.wcg = buildWcg(program, trace);
    profile.setTrgs(buildTrgs(program, chunks, trace, trg));
    if (pairs != nullptr)
        profile.pairs = buildPairDatabase(program, trace, *pairs);
    return profile;
}

} // namespace topo
