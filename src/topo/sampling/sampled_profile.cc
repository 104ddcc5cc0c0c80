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
            // then count that range only.
            TrgAccumulator accumulator(program, chunks, options);
            for (std::size_t i = seg.warm_begin; i < seg.begin; ++i)
                accumulator.warm(events[i]);
            for (std::size_t i = seg.begin; i < seg.end; ++i)
                accumulator.onRun(events[i].proc, events[i].offset,
                                  events[i].length);
            profile.trgs = accumulator.take();

            // WCG transitions over the measured range, seeded with the
            // procedure of the preceding event (the sharded exact
            // builder's rule).
            profile.wcg = WeightedGraph(program.procCount());
            countTransitions(events, seg.begin, seg.end,
                             seg.begin > 0 ? events[seg.begin - 1].proc
                                           : kInvalidProc,
                             profile.wcg);
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

} // namespace topo
