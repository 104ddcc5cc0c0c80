#include "topo/eval/experiment.hh"

#include <cmath>

#include "topo/obs/log.hh"
#include "topo/obs/metrics.hh"
#include "topo/profile/perturb.hh"
#include "topo/sampling/sampled_profile.hh"
#include "topo/util/error.hh"
#include "topo/util/rng.hh"
#include "topo/workload/trace_synthesizer.hh"

namespace topo
{

TrainingProfile
buildProfile(const Program &program, const Trace &train,
             const EvalOptions &options)
{
    options.cache.validate();
    const std::uint64_t byte_budget = static_cast<std::uint64_t>(
        options.q_budget_factor * options.cache.size_bytes);
    require(byte_budget > 0, "buildProfile: zero Q budget");
    ChunkMap chunks(program, options.chunk_bytes);
    TraceStats stats = computeTraceStats(program, train);
    PopularSet popular = selectPopular(program, stats, options.popularity);
    TrgBuildOptions trg_options;
    trg_options.byte_budget = byte_budget;
    trg_options.popular = &popular.mask;
    const PairBuildOptions pair_options{byte_budget, options.pair_window,
                                        &popular.mask};
    // Braced initializers run in order: the build reads popular.mask
    // before the set moves into the profile.
    TrainingProfile profile{
        buildTraceProfile(program, chunks, train, std::move(stats),
                          trg_options,
                          options.build_pairs ? &pair_options : nullptr,
                          options.sampling, options.cache.line_bytes),
        &program, options.cache, std::move(popular), std::move(chunks)};
    if (options.build_pairs && options.pair_prune > 0.0)
        profile.pairs.prune(options.pair_prune);
    return profile;
}

PlacementContext
TrainingProfile::context(const WeightedGraph *wcg_override,
                         const WeightedGraph *select_override,
                         const WeightedGraph *place_override) const
{
    PlacementContext ctx =
        profileContext(*program, cache, chunks, *this, popular.mask);
    if (wcg_override)
        ctx.wcg = wcg_override;
    if (select_override)
        ctx.trg_select = select_override;
    if (place_override)
        ctx.trg_place = place_override;
    return ctx;
}

ProfileBundle::ProfileBundle(const BenchmarkCase &bench,
                             const EvalOptions &options)
    : name_(bench.name),
      options_(options),
      program_(bench.model.program),
      train_trace_(synthesizeTrace(bench.model, bench.train)),
      test_trace_(synthesizeTrace(bench.model, bench.test)),
      profile_(buildProfile(program_, train_trace_, options_))
{
    // Expanded after the profile is built, so the TRG build's scratch
    // is freed before the stream is allocated (lower peak memory). A
    // sampled bundle replays the whole test trace only for an exact
    // reference, so it expands the stream when one is asked for.
    if (sampled()) {
        test_plan_ = std::make_unique<SamplePlan>(buildSamplePlan(
            program_, test_trace_, options_.cache.line_bytes,
            options_.sampling));
    } else {
        testStream();
    }
    MetricsRegistry::current().counter("eval.bundles").add();
    if (logEnabled(LogLevel::kDebug)) {
        logDebug("eval", "profile bundle ready",
                 {{"benchmark", name_},
                  {"procs", program_.procCount()},
                  {"popular", profile_.popular.count},
                  {"train_events", train_trace_.size()},
                  {"test_events", test_trace_.size()}});
    }
}

const FetchStream &
ProfileBundle::expandOnce(LazyStream &lazy, const Trace &trace) const
{
    std::call_once(lazy.once, [&] {
        lazy.stream.emplace(program_, trace, options_.cache.line_bytes);
    });
    return *lazy.stream;
}

double
ProfileBundle::testMissRate(const Layout &layout) const
{
    require(!sampled(), "ProfileBundle: testMissRate on a sampled "
                        "bundle; use estimateLayout over testPlan()");
    return layoutMissRate(program_, layout, testStream(), options_.cache);
}

double
ProfileBundle::trainMissRate(const Layout &layout) const
{
    require(!sampled(), "ProfileBundle: trainMissRate on a sampled "
                        "bundle; use estimateLayout over testPlan()");
    return layoutMissRate(program_, layout, trainStream(), options_.cache);
}

const SamplePlan &
ProfileBundle::testPlan() const
{
    require(sampled() && test_plan_,
            "ProfileBundle: testPlan on an exact bundle");
    return *test_plan_;
}

std::vector<AlgorithmResult>
runComparison(const ProfileBundle &bundle,
              const std::vector<const PlacementAlgorithm *> &algorithms,
              const ComparisonOptions &options)
{
    require(!algorithms.empty(), "runComparison: no algorithms");
    std::vector<AlgorithmResult> results;
    results.reserve(algorithms.size());
    Rng master(options.seed);

    auto measure = [&](const Layout &layout) {
        return options.measure_on_train ? bundle.trainMissRate(layout)
                                        : bundle.testMissRate(layout);
    };

    for (std::size_t ai = 0; ai < algorithms.size(); ++ai) {
        const PlacementAlgorithm &algo = *algorithms[ai];
        AlgorithmResult result;
        result.algorithm = algo.name();
        {
            const PlacementContext ctx = bundle.makeContext();
            result.unperturbed = measure(algo.place(ctx));
        }
        for (std::size_t rep = 0; rep < options.repetitions; ++rep) {
            // Independent noise streams per (algorithm, repetition,
            // graph) so results do not depend on evaluation order.
            const std::uint64_t base = ai * 1000003ULL + rep;
            Rng rng_wcg = master.split(base * 3 + 0);
            Rng rng_sel = master.split(base * 3 + 1);
            Rng rng_plc = master.split(base * 3 + 2);
            const WeightedGraph wcg_p =
                perturb(bundle.wcg(), options.scale, rng_wcg);
            const WeightedGraph sel_p =
                perturb(bundle.trgSelect(), options.scale, rng_sel);
            const WeightedGraph plc_p =
                perturb(bundle.trgPlace(), options.scale, rng_plc);
            const PlacementContext ctx =
                bundle.makeContext(&wcg_p, &sel_p, &plc_p);
            result.perturbed.push_back(measure(algo.place(ctx)));
        }
        results.push_back(std::move(result));
    }
    return results;
}

std::vector<std::uint32_t>
layoutOffsets(const Program &program, const Layout &layout,
              const CacheConfig &cache)
{
    std::vector<std::uint32_t> offsets(program.procCount(), 0);
    for (std::size_t i = 0; i < program.procCount(); ++i) {
        const auto id = static_cast<ProcId>(i);
        offsets[i] = static_cast<std::uint32_t>(
            layout.startLine(id, cache.line_bytes) % cache.lineCount());
    }
    return offsets;
}

} // namespace topo
