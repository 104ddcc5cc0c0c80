#include "topo/eval/experiment.hh"

#include <cmath>

#include "topo/obs/log.hh"
#include "topo/obs/metrics.hh"
#include "topo/profile/perturb.hh"
#include "topo/profile/wcg_builder.hh"
#include "topo/sampling/sampled_profile.hh"
#include "topo/util/error.hh"
#include "topo/util/rng.hh"
#include "topo/workload/trace_synthesizer.hh"

namespace topo
{

namespace
{

TrgBuildOptions
trgOptionsOf(const EvalOptions &options, const std::vector<bool> &popular)
{
    TrgBuildOptions build;
    build.byte_budget = static_cast<std::uint64_t>(
        options.q_budget_factor * options.cache.size_bytes);
    require(build.byte_budget > 0, "ProfileBundle: zero Q budget");
    build.popular = &popular;
    return build;
}

TrgBuildResult
runTrgBuild(const Program &program, const ChunkMap &chunks,
            const Trace &trace, const EvalOptions &options,
            const std::vector<bool> &popular)
{
    return buildTrgs(program, chunks, trace,
                     trgOptionsOf(options, popular));
}

/**
 * Expand the fetch stream only on the exact path. A sampled bundle
 * never replays the whole trace, and at large --trace-scale the full
 * stream is the dominant memory term, so it is simply not built.
 */
FetchStream
makeEvalStream(const Program &program, const Trace &trace,
               std::uint32_t line_bytes, bool sampled)
{
    if (!sampled)
        return FetchStream(program, trace, line_bytes);
    return FetchStream(program, Trace(program.procCount()), line_bytes);
}

} // namespace

ProfileBundle::ProfileBundle(const BenchmarkCase &bench,
                             const EvalOptions &options)
    : name_(bench.name),
      options_(options),
      program_(bench.model.program),
      train_trace_(synthesizeTrace(bench.model, bench.train)),
      test_trace_(synthesizeTrace(bench.model, bench.test)),
      train_stats_(computeTraceStats(program_, train_trace_)),
      popular_(selectPopular(program_, train_stats_, options.popularity)),
      chunks_(program_, options.chunk_bytes)
{
    options_.cache.validate();
    if (sampled()) {
        require(!options_.build_pairs,
                "ProfileBundle: the pair database has no sampled "
                "build; drop --pairs or --sample");
        train_plan_ = std::make_unique<SamplePlan>(buildSamplePlan(
            program_, train_trace_, options_.cache.line_bytes,
            options_.sampling));
        test_plan_ = std::make_unique<SamplePlan>(buildSamplePlan(
            program_, test_trace_, options_.cache.line_bytes,
            options_.sampling));
        SampledProfileResult profile = buildSampledProfile(
            program_, chunks_, train_trace_, *train_plan_,
            trgOptionsOf(options_, popular_.mask));
        wcg_ = std::move(profile.wcg);
        trg_select_ = std::move(profile.trg_select);
        trg_place_ = std::move(profile.trg_place);
        avg_queue_procs_ = profile.avg_queue_procs;
    } else {
        wcg_ = buildWcg(program_, train_trace_);
        TrgBuildResult trgs = runTrgBuild(program_, chunks_, train_trace_,
                                          options_, popular_.mask);
        trg_select_ = std::move(trgs.select);
        trg_place_ = std::move(trgs.place);
        avg_queue_procs_ = trgs.avg_queue_procs;
    }
    if (options_.build_pairs) {
        PairBuildOptions pair_opts;
        pair_opts.byte_budget = static_cast<std::uint64_t>(
            options_.q_budget_factor * options_.cache.size_bytes);
        pair_opts.pair_window = options_.pair_window;
        pair_opts.popular = &popular_.mask;
        pairs_ = buildPairDatabase(program_, train_trace_, pair_opts);
        if (options_.pair_prune > 0.0)
            pairs_.prune(options_.pair_prune);
    }
    test_stream_.emplace(makeEvalStream(program_, test_trace_,
                                        options_.cache.line_bytes,
                                        sampled()));
    MetricsRegistry::current().counter("eval.bundles").add();
    if (logEnabled(LogLevel::kDebug)) {
        logDebug("eval", "profile bundle ready",
                 {{"benchmark", name_},
                  {"procs", program_.procCount()},
                  {"popular", popular_.count},
                  {"train_events", train_trace_.size()},
                  {"test_events", test_trace_.size()}});
    }
}

PlacementContext
ProfileBundle::makeContext(const WeightedGraph *wcg,
                           const WeightedGraph *trg_select,
                           const WeightedGraph *trg_place) const
{
    PlacementContext ctx;
    ctx.program = &program_;
    ctx.cache = options_.cache;
    ctx.chunks = &chunks_;
    ctx.wcg = wcg ? wcg : &wcg_;
    ctx.trg_select = trg_select ? trg_select : &trg_select_;
    ctx.trg_place = trg_place ? trg_place : &trg_place_;
    ctx.pairs = &pairs_;
    ctx.popular = popular_.mask;
    ctx.heat.assign(program_.procCount(), 0.0);
    for (std::size_t i = 0; i < program_.procCount(); ++i)
        ctx.heat[i] = static_cast<double>(train_stats_.bytes_fetched[i]);
    return ctx;
}

const FetchStream &
ProfileBundle::trainStream() const
{
    std::call_once(train_stream_once_, [this] {
        train_stream_.emplace(makeEvalStream(program_, train_trace_,
                                             options_.cache.line_bytes,
                                             sampled()));
    });
    return *train_stream_;
}

double
ProfileBundle::testMissRate(const Layout &layout) const
{
    require(!sampled(), "ProfileBundle: testMissRate on a sampled "
                        "bundle; use sampledTestResult");
    return layoutMissRate(program_, layout, testStream(), options_.cache);
}

double
ProfileBundle::trainMissRate(const Layout &layout) const
{
    require(!sampled(), "ProfileBundle: trainMissRate on a sampled "
                        "bundle; use sampledTestResult");
    return layoutMissRate(program_, layout, trainStream(), options_.cache);
}

const SamplePlan &
ProfileBundle::testPlan() const
{
    require(sampled() && test_plan_,
            "ProfileBundle: testPlan on an exact bundle");
    return *test_plan_;
}

const SamplePlan &
ProfileBundle::trainPlan() const
{
    require(sampled() && train_plan_,
            "ProfileBundle: trainPlan on an exact bundle");
    return *train_plan_;
}

SampledSimResult
ProfileBundle::sampledTestResult(const Layout &layout, bool attribute) const
{
    return estimateLayout(program_, layout, test_trace_, testPlan(),
                          options_.cache, attribute);
}

SimResult
ProfileBundle::exactTestResult(const Layout &layout, bool attribute) const
{
    const FetchStream stream(program_, test_trace_,
                             options_.cache.line_bytes);
    return simulateLayout(program_, layout, stream, options_.cache,
                          attribute);
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
