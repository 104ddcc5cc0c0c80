#include "workloads.hh"

#include <cstring>

#include "topo/cache/simulate.hh"
#include "topo/cache/taxonomy.hh"
#include "topo/placement/cache_coloring.hh"
#include "topo/placement/gbsc.hh"
#include "topo/placement/pettis_hansen.hh"
#include "topo/profile/perturb.hh"
#include "topo/profile/wcg_builder.hh"
#include "topo/sampling/sampled_profile.hh"
#include "topo/util/error.hh"
#include "topo/util/rng.hh"
#include "topo/workload/trace_synthesizer.hh"

namespace perfbench
{

using namespace topo;

const std::vector<WorkloadSpec> &
workloadSpecs()
{
    static const std::vector<WorkloadSpec> specs = [] {
        std::vector<WorkloadSpec> list;
        WorkloadSpec profile;
        profile.name = "profile-gcc";
        profile.benchmark = "gcc";
        profile.mode = Mode::kExact;
        profile.scale = 0.1;
        profile.lanes = 1;
        profile.algorithms = {"default", "ph", "hkc", "gbsc"};
        list.push_back(profile);

        WorkloadSpec perturbed;
        perturbed.name = "perturb-gcc";
        perturbed.benchmark = "gcc";
        perturbed.mode = Mode::kPerturb;
        perturbed.scale = 0.5;
        perturbed.lanes = 1;
        perturbed.algorithms = {"ph", "hkc", "gbsc"};
        perturbed.repetitions = 16;
        perturbed.smoke_repetitions = 2;
        list.push_back(perturbed);

        WorkloadSpec explain;
        explain.name = "explain-m88ksim";
        explain.benchmark = "m88ksim";
        explain.mode = Mode::kExplain;
        explain.scale = 0.03;
        explain.lanes = 1;
        explain.algorithms = {"default", "ph", "hkc", "gbsc"};
        list.push_back(explain);

        WorkloadSpec sampled;
        sampled.name = "sampled-m88ksim";
        sampled.benchmark = "m88ksim";
        sampled.mode = Mode::kSampled;
        sampled.scale = 0.25;
        sampled.lanes = 1;
        sampled.algorithms = {"ph", "gbsc"};
        list.push_back(sampled);
        return list;
    }();
    return specs;
}

const WorkloadSpec *
findWorkload(const std::string &name)
{
    for (const WorkloadSpec &spec : workloadSpecs()) {
        if (spec.name == name)
            return &spec;
    }
    return nullptr;
}

std::uint64_t
inputSetSeed(std::uint64_t seed, std::size_t set)
{
    if (set == 0)
        return seed;
    const std::uint64_t derived = Rng(seed).split(100 + set).next();
    return derived == kSuiteSeed ? 1 : derived;
}

Inputs
makeInputs(const WorkloadSpec &spec, double scale, std::size_t repetitions,
           std::uint64_t seed)
{
    Inputs inputs;
    inputs.bench = paperBenchmark(spec.benchmark, scale);
    if (seed != kSuiteSeed) {
        const Rng mix(seed);
        inputs.bench.train.seed = mix.split(1).next();
        inputs.bench.test.seed = mix.split(2).next();
        inputs.comparison.seed = mix.split(3).next();
    }
    inputs.comparison.repetitions = repetitions;
    if (spec.mode == Mode::kSampled)
        inputs.eval.sampling.mode = SampleMode::kSimpoint;
    inputs.train = synthesizeTrace(inputs.bench.model, inputs.bench.train);
    inputs.test = synthesizeTrace(inputs.bench.model, inputs.bench.test);
    return inputs;
}

const PlacementAlgorithm &
algorithmByName(const std::string &name)
{
    static const DefaultPlacement def;
    static const PettisHansen ph;
    static const CacheColoring hkc;
    static const Gbsc gbsc;
    if (name == "default")
        return def;
    if (name == "ph")
        return ph;
    if (name == "hkc")
        return hkc;
    if (name == "gbsc")
        return gbsc;
    fail("perfbench: unknown algorithm '" + name + "'");
}

namespace
{

/** Where a pass's replays read the test input from. */
struct TestSide
{
    const Program *program = nullptr;
    CacheConfig cache;
    /** Expanded test stream (exact modes). */
    const FetchStream *stream = nullptr;
    /** Test trace and its sample plan (kSampled). */
    const Trace *trace = nullptr;
    const SamplePlan *plan = nullptr;
};

/** Place with @p name under @p ctx and replay the result by mode. */
LayoutOutcome
placeAndReplay(Mode mode, const std::string &name, int repetition,
               const PlacementContext &ctx, const TestSide &test,
               Tracer *tracer, PassOutput &out)
{
    LayoutOutcome outcome;
    outcome.algorithm = name;
    outcome.repetition = repetition;
    outcome.layout = traced(tracer, "placement", "place." + name, [&] {
        return algorithmByName(name).place(ctx);
    });
    switch (mode) {
    case Mode::kExact:
    case Mode::kPerturb: {
        const SimResult result =
            traced(tracer, "cache", "simulateLayout", [&] {
                return simulateLayout(*test.program, outcome.layout,
                                      *test.stream, test.cache);
            });
        outcome.exact = ReplayCounts{result.accesses, result.misses};
        out.replayed_fetches += result.accesses;
        break;
    }
    case Mode::kExplain: {
        Span span(tracer, "cache", "simulateLayout.observed");
        TaxonomySink sink(*test.program, test.stream->programLineCount(),
                          test.cache);
        SimObservers observers;
        observers.taxonomy = &sink;
        const SimResult result =
            simulateLayout(*test.program, outcome.layout, *test.stream,
                           test.cache, false, nullptr, &observers);
        outcome.exact = ReplayCounts{result.accesses, result.misses};
        outcome.compulsory = sink.compulsory();
        outcome.capacity = sink.capacity();
        outcome.conflict = sink.conflict();
        out.observed_fetches += result.accesses;
        break;
    }
    case Mode::kSampled: {
        const SampledSimResult estimate =
            traced(tracer, "sampling", "estimateLayout", [&] {
                return estimateLayout(*test.program, outcome.layout,
                                      *test.trace, *test.plan, test.cache,
                                      false);
            });
        outcome.estimate = SampledCounts{estimate.accesses,
                                         estimate.est_misses};
        break;
    }
    }
    ++out.operations;
    return outcome;
}

void
recordEdges(PassOutput &out, const WeightedGraph &wcg,
            const WeightedGraph &select, const WeightedGraph &place)
{
    out.wcg_edges = wcg.edgeCount();
    out.select_edges = select.edgeCount();
    out.place_edges = place.edgeCount();
}

double
streamMb(const Program &program, const FetchStream &stream)
{
    const double bytes =
        static_cast<double>(stream.lineIds().capacity()) *
            sizeof(std::uint32_t) +
        static_cast<double>(stream.runs().capacity()) * sizeof(FetchRun) +
        static_cast<double>(stream.programLineCount()) * sizeof(ProcId) +
        static_cast<double>(program.procCount() + 1) * sizeof(std::uint32_t);
    return bytes / (1024.0 * 1024.0);
}

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

} // namespace

PassOutput
runPlainPass(const WorkloadSpec &spec, const Inputs &inputs)
{
    PassOutput out;
    const Clock::time_point start = Clock::now();
    const ProfileBundle bundle(inputs.bench, inputs.eval);
    out.bundle_ms = msSince(start);
    recordEdges(out, bundle.wcg(), bundle.trgSelect(), bundle.trgPlace());

    if (spec.mode == Mode::kPerturb) {
        std::vector<const PlacementAlgorithm *> algorithms;
        for (const std::string &name : spec.algorithms)
            algorithms.push_back(&algorithmByName(name));
        out.comparison =
            runComparison(bundle, algorithms, inputs.comparison);
        out.wall_ms = msSince(start);
        out.operations =
            algorithms.size() * (inputs.comparison.repetitions + 1);
        // runComparison does not return its layouts, so the GBSC layout
        // is placed once more, outside wall_ms, to time layout_s and to
        // digest it.
        const Clock::time_point place_start = Clock::now();
        LayoutOutcome gbsc;
        gbsc.algorithm = "gbsc";
        gbsc.layout = algorithmByName("gbsc").place(bundle.makeContext());
        out.layout_ms = out.bundle_ms + msSince(place_start);
        out.layouts.push_back(std::move(gbsc));
        return out;
    }

    TestSide test;
    test.program = &bundle.program();
    test.cache = inputs.eval.cache;
    if (spec.mode == Mode::kSampled) {
        test.trace = &bundle.testTrace();
        test.plan = &bundle.testPlan();
    } else {
        test.stream = &bundle.testStream();
    }
    for (const std::string &name : spec.algorithms) {
        const Clock::time_point place_start = Clock::now();
        out.layouts.push_back(placeAndReplay(spec.mode, name, -1,
                                             bundle.makeContext(), test,
                                             nullptr, out));
        if (name == "gbsc")
            out.layout_ms = out.bundle_ms + msSince(place_start);
    }
    out.wall_ms = msSince(start);
    return out;
}

PassOutput
runDecomposedPass(const WorkloadSpec &spec, const Inputs &inputs,
                  Tracer *tracer)
{
    PassOutput out;
    Span root(tracer, "bench", "pass");
    const Program &program = inputs.bench.model.program;
    const EvalOptions &eval = inputs.eval;

    // ProfileBundle's constructor, call by call.
    const Trace train = traced(tracer, "workload", "synthesizeTrace", [&] {
        return synthesizeTrace(inputs.bench.model, inputs.bench.train);
    });
    const Trace test = traced(tracer, "workload", "synthesizeTrace", [&] {
        return synthesizeTrace(inputs.bench.model, inputs.bench.test);
    });
    const TraceStats stats =
        traced(tracer, "trace", "computeTraceStats",
               [&] { return computeTraceStats(program, train); });
    const PopularSet popular =
        traced(tracer, "placement", "selectPopular", [&] {
            return selectPopular(program, stats, eval.popularity);
        });
    const ChunkMap chunks = traced(tracer, "profile", "ChunkMap", [&] {
        return ChunkMap(program, eval.chunk_bytes);
    });
    TrgBuildOptions trg_options;
    trg_options.byte_budget = static_cast<std::uint64_t>(
        eval.q_budget_factor * eval.cache.size_bytes);
    trg_options.popular = &popular.mask;
    out.train_events = train.size();

    std::optional<FetchStream> test_stream;
    std::optional<SamplePlan> test_plan;
    WeightedGraph wcg;
    WeightedGraph trg_select;
    WeightedGraph trg_place;
    if (spec.mode == Mode::kSampled) {
        const SamplePlan train_plan =
            traced(tracer, "sampling", "buildSamplePlan", [&] {
                return buildSamplePlan(program, train,
                                       eval.cache.line_bytes,
                                       eval.sampling);
            });
        test_plan.emplace(traced(tracer, "sampling", "buildSamplePlan", [&] {
            return buildSamplePlan(program, test, eval.cache.line_bytes,
                                   eval.sampling);
        }));
        SampledProfileResult profile =
            traced(tracer, "sampling", "buildSampledProfile", [&] {
                return buildSampledProfile(program, chunks, train,
                                           train_plan, trg_options);
            });
        wcg = std::move(profile.wcg);
        trg_select = std::move(profile.trg_select);
        trg_place = std::move(profile.trg_place);
        out.clusters = test_plan->cluster_count;
        out.replayed_share = test_plan->replayedFraction();
    } else {
        const FetchStream train_stream =
            traced(tracer, "trace", "FetchStream", [&] {
                return FetchStream(program, train, eval.cache.line_bytes);
            });
        test_stream.emplace(traced(tracer, "trace", "FetchStream", [&] {
            return FetchStream(program, test, eval.cache.line_bytes);
        }));
        out.fetches = train_stream.size() + test_stream->size();
        out.fetch_runs =
            train_stream.runs().size() + test_stream->runs().size();
        out.stream_mb = streamMb(program, train_stream) +
                        streamMb(program, *test_stream);
        wcg = traced(tracer, "profile", "buildWcg",
                     [&] { return buildWcg(program, train); });
        TrgBuildResult trgs = traced(tracer, "profile", "buildTrgs", [&] {
            return buildTrgs(program, chunks, train, trg_options);
        });
        trg_select = std::move(trgs.select);
        trg_place = std::move(trgs.place);
    }
    recordEdges(out, wcg, trg_select, trg_place);

    // ProfileBundle::makeContext, by hand.
    const PairDatabase pairs;
    const PlacementContext ctx =
        traced(tracer, "eval", "PlacementContext", [&] {
            PlacementContext c;
            c.program = &program;
            c.cache = eval.cache;
            c.chunks = &chunks;
            c.wcg = &wcg;
            c.trg_select = &trg_select;
            c.trg_place = &trg_place;
            c.pairs = &pairs;
            c.popular = popular.mask;
            c.heat.assign(program.procCount(), 0.0);
            for (std::size_t i = 0; i < program.procCount(); ++i)
                c.heat[i] = static_cast<double>(stats.bytes_fetched[i]);
            return c;
        });

    TestSide side;
    side.program = &program;
    side.cache = eval.cache;
    side.stream = test_stream ? &*test_stream : nullptr;
    side.trace = &test;
    side.plan = test_plan ? &*test_plan : nullptr;

    if (spec.mode != Mode::kPerturb) {
        for (const std::string &name : spec.algorithms) {
            out.layouts.push_back(
                placeAndReplay(spec.mode, name, -1, ctx, side, tracer, out));
        }
        return out;
    }

    // runComparison, call by call: the same noise streams per
    // (algorithm, repetition, graph), the same test-trace miss rate.
    const ComparisonOptions &options = inputs.comparison;
    const Rng master(options.seed);
    for (std::size_t ai = 0; ai < spec.algorithms.size(); ++ai) {
        const std::string &name = spec.algorithms[ai];
        AlgorithmResult result;
        result.algorithm = algorithmByName(name).name();
        out.layouts.push_back(
            placeAndReplay(spec.mode, name, -1, ctx, side, tracer, out));
        result.unperturbed = out.layouts.back().exact->missRate();
        for (std::size_t rep = 0; rep < options.repetitions; ++rep) {
            const std::uint64_t base = ai * 1000003ULL + rep;
            Rng rng_wcg = master.split(base * 3 + 0);
            Rng rng_sel = master.split(base * 3 + 1);
            Rng rng_plc = master.split(base * 3 + 2);
            const WeightedGraph wcg_p =
                traced(tracer, "profile", "perturb", [&] {
                    return perturb(wcg, options.scale, rng_wcg);
                });
            const WeightedGraph sel_p =
                traced(tracer, "profile", "perturb", [&] {
                    return perturb(trg_select, options.scale, rng_sel);
                });
            const WeightedGraph plc_p =
                traced(tracer, "profile", "perturb", [&] {
                    return perturb(trg_place, options.scale, rng_plc);
                });
            const PlacementContext perturbed =
                traced(tracer, "eval", "PlacementContext", [&] {
                    PlacementContext c = ctx;
                    c.wcg = &wcg_p;
                    c.trg_select = &sel_p;
                    c.trg_place = &plc_p;
                    return c;
                });
            out.layouts.push_back(placeAndReplay(
                spec.mode, name, static_cast<int>(rep), perturbed, side,
                tracer, out));
            result.perturbed.push_back(out.layouts.back().exact->missRate());
        }
        out.comparison.push_back(std::move(result));
    }
    return out;
}

std::string
comparePasses(const PassOutput &ref, const PassOutput &got)
{
    if (ref.wcg_edges != got.wcg_edges ||
        ref.select_edges != got.select_edges ||
        ref.place_edges != got.place_edges)
        return "edge counts differ";
    if (ref.operations != got.operations)
        return "operation counts differ";
    if (ref.comparison.size() != got.comparison.size())
        return "comparison sizes differ";
    for (std::size_t a = 0; a < ref.comparison.size(); ++a) {
        const AlgorithmResult &r = ref.comparison[a];
        const AlgorithmResult &g = got.comparison[a];
        if (r.algorithm != g.algorithm ||
            !sameBits(r.unperturbed, g.unperturbed) ||
            r.perturbed.size() != g.perturbed.size())
            return "comparison of " + r.algorithm + " differs";
        for (std::size_t k = 0; k < r.perturbed.size(); ++k) {
            if (!sameBits(r.perturbed[k], g.perturbed[k]))
                return "perturbed miss rate of " + r.algorithm + " differs";
        }
    }
    for (const LayoutOutcome &r : ref.layouts) {
        const LayoutOutcome *g = nullptr;
        for (const LayoutOutcome &candidate : got.layouts) {
            if (candidate.algorithm == r.algorithm &&
                candidate.repetition == r.repetition)
                g = &candidate;
        }
        const std::string who = r.algorithm + "#" +
                                std::to_string(r.repetition);
        if (g == nullptr)
            return "layout " + who + " missing";
        if (layoutDigest(r.layout) != layoutDigest(g->layout))
            return "layout " + who + " digest differs";
        if (r.exact && g->exact && !(*r.exact == *g->exact))
            return "replay of " + who + " differs";
        if (r.estimate && g->estimate &&
            (r.estimate->accesses != g->estimate->accesses ||
             !sameBits(r.estimate->est_misses, g->estimate->est_misses)))
            return "estimate of " + who + " differs";
        if (r.compulsory != g->compulsory || r.capacity != g->capacity ||
            r.conflict != g->conflict)
            return "3C split of " + who + " differs";
    }
    return "";
}

} // namespace perfbench
