/**
 * @file
 * topo_perfbench: the repository's end-to-end and per-layer benchmark.
 *
 *   topo_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                  [--smoke] [--scale F] [--lanes N]
 *
 * One process, one caller, a closed loop: it synthesizes the workload's
 * inputs for each of the seed's input sets (set-up), runs one warm-up
 * pass per set whose output becomes that set's reference, then runs
 * passes back to back for S seconds, on the sets in turn, timing the
 * set-up again before each. With --trace 0 each iteration is a plain
 * pass and the run reports the end-to-end metrics. With --trace 1 each
 * iteration also runs a decomposed pass with spans, and the run reports
 * the per-layer metrics and prints the phase table. Independent checks
 * run after the timed loop. The last line of stdout is one JSON object:
 * {"correct", "attempted", "failed", "metrics"}. The exit code is 0 only
 * when every check passed; --smoke shrinks every workload to seconds.
 * --scale and --lanes override the workload's trace scale and pool
 * lanes.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "quiet_cpu.hh"
#include "reference.hh"
#include "tracer.hh"
#include "workloads.hh"
#include "topo/cache/simulate.hh"
#include "topo/exec/exec.hh"
#include "topo/util/error.hh"

namespace
{

using namespace perfbench;

/** A metric as it goes into the result line. */
struct Metric
{
    std::string name;
    std::string unit;
    double value = 0.0;
};

struct Args
{
    std::string workload;
    std::uint64_t seed = kSuiteSeed;
    double seconds = 10.0;
    /** Trace scale override; 0 keeps the workload's own. */
    double scale = 0.0;
    bool trace = false;
    bool smoke = false;
    /** Pool lanes override; 0 keeps the workload's own. */
    int lanes = 0;
};

Args
parseArgs(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        std::string key = argv[i];
        std::string value;
        const std::size_t eq = key.find('=');
        if (eq != std::string::npos) {
            value = key.substr(eq + 1);
            key = key.substr(0, eq);
        } else if (key != "--smoke") {
            topo::require(i + 1 < argc, "topo_perfbench: " + key +
                                            " needs a value");
            value = argv[++i];
        }
        if (key == "--workload")
            args.workload = value;
        else if (key == "--seed")
            args.seed = std::stoull(value);
        else if (key == "--seconds")
            args.seconds = std::stod(value);
        else if (key == "--trace")
            args.trace = value == "1";
        else if (key == "--scale")
            args.scale = std::stod(value);
        else if (key == "--lanes")
            args.lanes = std::stoi(value);
        else if (key == "--smoke")
            args.smoke = true;
        else
            topo::fail("topo_perfbench: unknown option " + key);
    }
    topo::require(findWorkload(args.workload) != nullptr,
                  "topo_perfbench: unknown --workload '" + args.workload +
                      "'");
    topo::require(args.seconds > 0.0,
                  "topo_perfbench: --seconds must be positive");
    return args;
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/**
 * The fastest of a run's passes. Other tenants of a shared host only
 * ever slow a pass down, in bursts of seconds, so the best pass is the
 * steadiest estimate of what the code costs.
 */
double
best(const std::vector<double> &values)
{
    return values.empty() ? 0.0
                          : *std::min_element(values.begin(), values.end());
}

/** The mean over input sets of each set's fastest pass. */
double
meanOfBest(const std::vector<std::vector<double>> &per_set)
{
    double sum = 0.0;
    for (const std::vector<double> &values : per_set)
        sum += best(values);
    return per_set.empty() ? 0.0 : sum / static_cast<double>(per_set.size());
}

/** Quality figures the checks derive from the reference pass. */
struct Quality
{
    /** Exact test-trace miss rate of the GBSC layout, %. */
    double miss_rate_gbsc = 0.0;
    /** kSampled: sampled-profile minus exact-profile GBSC miss rate. */
    double regret_gbsc = 0.0;
    /** kSampled: |estimated - exact| GBSC miss rate, points. */
    double est_error_gbsc = 0.0;
    /** kExplain: conflict misses / misses of the GBSC replay. */
    double conflict_share_gbsc = 0.0;
};

const LayoutOutcome &
unperturbedGbsc(const PassOutput &pass)
{
    for (const LayoutOutcome &outcome : pass.layouts) {
        if (outcome.algorithm == "gbsc" && outcome.repetition == -1)
            return outcome;
    }
    topo::fail("topo_perfbench: pass has no GBSC layout");
}

/**
 * The independent checks, outside the timed region, on the reference
 * pass (every other pass was compared with it). Appends what failed to
 * @p problems.
 */
Quality
verifyReference(const WorkloadSpec &spec, const Inputs &inputs,
                const PassOutput &first, std::vector<std::string> &problems)
{
    const topo::Program &program = inputs.bench.model.program;
    const topo::CacheConfig &cache = inputs.eval.cache;
    auto naive = [&](const topo::Layout &layout) {
        return naiveDirectMapped(program, layout, inputs.test, cache);
    };
    auto expectNaive = [&](const LayoutOutcome &outcome) {
        const ReplayCounts reference = naive(outcome.layout);
        if (!(reference == *outcome.exact)) {
            problems.push_back("replay of " + outcome.algorithm + "#" +
                               std::to_string(outcome.repetition) +
                               " disagrees with the reference model");
        }
        return reference;
    };
    Quality quality;

    switch (spec.mode) {
    case Mode::kExact:
        for (const LayoutOutcome &outcome : first.layouts)
            expectNaive(outcome);
        quality.miss_rate_gbsc =
            100.0 * unperturbedGbsc(first).exact->missRate();
        break;
    case Mode::kExplain: {
        const topo::FetchStream stream(program, inputs.test,
                                       cache.line_bytes);
        for (const LayoutOutcome &outcome : first.layouts) {
            expectNaive(outcome);
            const std::uint64_t misses = outcome.exact->misses;
            if (outcome.compulsory + outcome.capacity + outcome.conflict !=
                misses)
                problems.push_back("3C split of " + outcome.algorithm +
                                   " does not sum to its misses");
            const topo::SimResult plain = topo::simulateLayout(
                program, outcome.layout, stream, cache);
            if (plain.misses != misses || plain.accesses !=
                                              outcome.exact->accesses)
                problems.push_back("observed replay of " +
                                   outcome.algorithm +
                                   " differs from the unobserved one");
        }
        const LayoutOutcome &gbsc = unperturbedGbsc(first);
        quality.miss_rate_gbsc = 100.0 * gbsc.exact->missRate();
        quality.conflict_share_gbsc =
            gbsc.exact->misses ? static_cast<double>(gbsc.conflict) /
                                     static_cast<double>(gbsc.exact->misses)
                               : 0.0;
        break;
    }
    case Mode::kPerturb: {
        // runComparison keeps its layouts; its decomposition exposes
        // them, must reproduce its miss rates bit for bit, and every
        // replay in it must match the reference model.
        const PassOutput decomposed =
            runDecomposedPass(spec, inputs, nullptr);
        const std::string diff = comparePasses(first, decomposed);
        if (!diff.empty())
            problems.push_back("runComparison decomposition: " + diff);
        for (const LayoutOutcome &outcome : decomposed.layouts)
            expectNaive(outcome);
        for (const topo::AlgorithmResult &result : first.comparison) {
            if (result.algorithm == "GBSC")
                quality.miss_rate_gbsc = 100.0 * result.unperturbed;
        }
        break;
    }
    case Mode::kSampled: {
        const topo::FetchStream stream(program, inputs.test,
                                       cache.line_bytes);
        double sampled_gbsc = 0.0;
        for (const LayoutOutcome &outcome : first.layouts) {
            const topo::SimResult exact =
                topo::simulateLayout(program, outcome.layout, stream, cache);
            const ReplayCounts counts{exact.accesses, exact.misses};
            if (!(naive(outcome.layout) == counts))
                problems.push_back("exact replay of " + outcome.algorithm +
                                   " disagrees with the reference model");
            if (outcome.estimate->accesses != counts.accesses)
                problems.push_back("estimate of " + outcome.algorithm +
                                   " counts a different access total");
            if (outcome.algorithm == "gbsc") {
                sampled_gbsc = 100.0 * counts.missRate();
                quality.est_error_gbsc =
                    std::fabs(100.0 * outcome.estimate->estMissRate() -
                              sampled_gbsc);
            }
        }
        // GBSC placed from the exact profile: what sampling costs the
        // layout a user would ship.
        topo::EvalOptions exact_eval = inputs.eval;
        exact_eval.sampling = topo::SamplingOptions{};
        const topo::ProfileBundle exact_bundle(inputs.bench, exact_eval);
        const topo::Layout layout =
            algorithmByName("gbsc").place(exact_bundle.makeContext());
        const ReplayCounts exact_profile = naive(layout);
        if (exact_profile.missRate() != exact_bundle.testMissRate(layout))
            problems.push_back("exact-profile GBSC replay disagrees with "
                               "the reference model");
        quality.miss_rate_gbsc = sampled_gbsc;
        quality.regret_gbsc =
            sampled_gbsc - 100.0 * exact_profile.missRate();
        break;
    }
    }
    return quality;
}

/** The library layers, in pipeline order. */
const std::vector<std::string> kLayers = {
    "workload", "trace", "profile", "placement", "cache", "sampling", "eval"};

/** Spans of the decomposed pass that stand for ProfileBundle's steps. */
const std::vector<std::string> kBundleSteps = {
    "workload/synthesizeTrace", "trace/computeTraceStats",
    "placement/selectPopular",  "profile/ChunkMap",
    "trace/FetchStream",        "profile/buildWcg",
    "profile/buildTrgs",        "sampling/buildSamplePlan",
    "sampling/buildSampledProfile"};

/** Per-layer metric values of one traced iteration. */
std::map<std::string, double>
layerSample(const PassProfile &profile, const PassOutput &decomposed,
            const PassOutput &plain, double span_cost_ms)
{
    std::map<std::string, double> m;
    const double trg_ms = profile.callMs("profile/buildTrgs");
    m["profile.trg_build_ms"] = trg_ms;
    m["profile.trg_ns_per_event"] =
        decomposed.train_events && trg_ms > 0.0
            ? trg_ms * 1e6 / static_cast<double>(decomposed.train_events)
            : 0.0;
    m["profile.wcg_build_ms"] = profile.callMs("profile/buildWcg");
    m["profile.perturb_ms"] = profile.callMs("profile/perturb");
    m["trace.stats_ms"] = profile.callMs("trace/computeTraceStats");
    m["trace.fetch_stream_ms"] = profile.callMs("trace/FetchStream");
    m["placement.select_popular_ms"] =
        profile.callMs("placement/selectPopular");
    for (const char *algo : {"ph", "hkc", "gbsc"}) {
        m[std::string("placement.") + algo + "_ms"] =
            profile.callMs(std::string("placement/place.") + algo);
    }
    std::size_t place_calls = 0;
    for (const auto &[key, count] : profile.call_count) {
        if (key.rfind("placement/place.", 0) == 0)
            place_calls += count;
    }
    m["placement.calls"] = static_cast<double>(place_calls);
    const double replay_ms = profile.callMs("cache/simulateLayout");
    m["cache.replay_ms"] = replay_ms;
    m["cache.replay_fetches_per_s"] =
        replay_ms > 0.0
            ? static_cast<double>(decomposed.replayed_fetches) /
                  (replay_ms / 1000.0)
            : 0.0;
    const double observed_ms =
        profile.callMs("cache/simulateLayout.observed");
    m["cache.observed_replay_ms"] = observed_ms;
    m["cache.observed_ns_per_fetch"] =
        decomposed.observed_fetches
            ? observed_ms * 1e6 /
                  static_cast<double>(decomposed.observed_fetches)
            : 0.0;
    m["sampling.plan_ms"] = profile.callMs("sampling/buildSamplePlan");
    m["sampling.profile_ms"] =
        profile.callMs("sampling/buildSampledProfile");
    m["sampling.estimate_ms"] = profile.callMs("sampling/estimateLayout");
    double bundle_steps_ms = 0.0;
    for (const std::string &step : kBundleSteps)
        bundle_steps_ms += profile.callMs(step);
    m["eval.bundle_ms"] = plain.bundle_ms;
    m["eval.glue_ms"] = plain.bundle_ms - bundle_steps_ms;
    m["bench.unattributed_ms"] = profile.unattributed_ms;
    m["bench.span_coverage_pct"] =
        100.0 * (profile.wall_ms - profile.unattributed_ms) /
        profile.wall_ms;
    m["bench.tracing_overhead_pct"] =
        100.0 * static_cast<double>(profile.span_count) * span_cost_ms /
        profile.wall_ms;
    m["bench.pass_ms"] = profile.wall_ms;
    for (const std::string &layer : kLayers) {
        const auto it = profile.layers.find(layer);
        const double self_ms =
            it == profile.layers.end() ? 0.0 : it->second.self_ms;
        m["layer." + layer + "_ms"] = self_ms;
        m["layer." + layer + "_pct"] = 100.0 * self_ms / profile.wall_ms;
    }
    return m;
}

/** Units of the per-layer metrics (everything else is ms). */
std::string
layerUnit(const std::string &name)
{
    static const std::map<std::string, std::string> units = {
        {"profile.trg_ns_per_event", "ns"},
        {"profile.trg_place_edges", "count"},
        {"profile.trg_select_edges", "count"},
        {"trace.fetch_stream_rss_mb", "MB"},
        {"trace.fetches", "count"},
        {"trace.fetch_runs", "count"},
        {"trace.run_compression", "ratio"},
        {"placement.calls", "count"},
        {"cache.replay_fetches_per_s", "1/s"},
        {"cache.observed_ns_per_fetch", "ns"},
        {"cache.conflict_share.gbsc", "ratio"},
        {"sampling.replayed_share", "ratio"},
        {"sampling.clusters", "count"},
        {"bench.tracing_overhead_pct", "%"},
        {"bench.span_coverage_pct", "%"},
        {"miss_rate.gbsc", "%"},
        {"regret.gbsc", "points"},
        {"est_error.gbsc", "points"},
    };
    const auto it = units.find(name);
    if (it != units.end())
        return it->second;
    if (name.size() > 4 && name.compare(name.size() - 4, 4, "_pct") == 0)
        return "%";
    return "ms";
}

std::string
formatNumber(double value)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(value) ? value
                                                                  : 0.0);
    return buf;
}

void
printResult(bool correct, std::size_t attempted, std::size_t failed,
            const std::vector<Metric> &metrics)
{
    std::ostringstream os;
    os << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        os << (i ? ", " : "") << '"' << metrics[i].name
           << "\": {\"value\": " << formatNumber(metrics[i].value)
           << ", \"unit\": \"" << metrics[i].unit << "\"}";
    }
    os << "}}";
    std::cout << os.str() << std::endl;
}

void
printMetricTable(const std::vector<Metric> &metrics)
{
    std::printf("%-32s %18s  %s\n", "metric", "value", "unit");
    for (const Metric &metric : metrics) {
        std::printf("%-32s %18.6f  %s\n", metric.name.c_str(), metric.value,
                    metric.unit.c_str());
    }
}

/** The phase table: per-layer self time, share of wall, RSS growth. */
void
printPhaseTable(const std::string &workload,
                const std::vector<PassProfile> &profiles)
{
    std::vector<double> walls;
    std::vector<double> unattributed;
    for (const PassProfile &profile : profiles) {
        walls.push_back(profile.wall_ms);
        unattributed.push_back(profile.unattributed_ms);
    }
    const double wall = median(walls);
    std::printf("\nphase table: %s, median of %zu traced passes\n",
                workload.c_str(), profiles.size());
    std::printf("%-14s %12s %9s %14s\n", "layer", "self ms", "% wall",
                "max RSS +MB");
    for (const std::string &layer : kLayers) {
        std::vector<double> self;
        double rss = 0.0;
        for (const PassProfile &profile : profiles) {
            const auto it = profile.layers.find(layer);
            self.push_back(it == profile.layers.end() ? 0.0
                                                      : it->second.self_ms);
            if (it != profile.layers.end())
                rss = std::max(rss, it->second.rss_mb);
        }
        const double ms = median(self);
        std::printf("%-14s %12.3f %8.2f%% %14.2f\n", layer.c_str(), ms,
                    100.0 * ms / wall, rss);
    }
    const double gap = median(unattributed);
    std::printf("%-14s %12.3f %8.2f%%\n", "unattributed", gap,
                100.0 * gap / wall);
    std::printf("%-14s %12.3f %8.2f%%\n\n", "pass wall", wall, 100.0);
}

int
run(const Args &args)
{
    const WorkloadSpec &spec = *findWorkload(args.workload);
    const int lanes = args.lanes > 0 ? args.lanes : spec.lanes;
    topo::setExecJobs(lanes);
    const double scale = args.scale > 0.0 ? args.scale
                         : args.smoke     ? spec.smoke_scale
                                          : spec.scale;
    const std::size_t repetitions =
        args.smoke ? spec.smoke_repetitions : spec.repetitions;
    // The run takes its passes on the seed's input sets in turn, so the
    // work one set happens to draw (popular set size, k-means
    // convergence) averages out of the run's figures.
    const std::size_t sets = args.smoke ? 2 : kInputSets;
    const std::size_t min_passes = args.smoke ? sets : 3 * sets;

    // Set-up: synthesis of the program and both traces. It is timed
    // once per set here and once more before every pass, so its samples
    // spread over the run like the passes do.
    std::vector<double> setup_ms;
    auto setUp = [&](std::size_t set) {
        const Clock::time_point start = Clock::now();
        Inputs made = makeInputs(spec, scale, repetitions,
                                 inputSetSeed(args.seed, set));
        setup_ms.push_back(msSince(start));
        return made;
    };
    std::vector<Inputs> inputs;
    for (std::size_t set = 0; set < sets; ++set)
        inputs.push_back(setUp(set));

    // Warm-up passes: their outputs are the references for every later
    // pass on the same set.
    std::vector<PassOutput> first;
    std::size_t attempted = 0;
    for (const Inputs &set_inputs : inputs) {
        first.push_back(runPlainPass(spec, set_inputs));
        attempted += first.back().operations;
    }
    std::size_t failed = 0;
    std::vector<std::string> problems;
    auto check = [&](std::size_t set, const PassOutput &pass,
                     const char *what) {
        attempted += pass.operations;
        const std::string diff = comparePasses(first[set], pass);
        if (!diff.empty()) {
            failed += pass.operations;
            problems.push_back(std::string(what) + ": " + diff);
        }
    };
    auto guarded = [&](std::size_t set,
                       auto &&fn) -> std::optional<PassOutput> {
        try {
            return fn();
        } catch (const topo::TopoError &error) {
            attempted += first[set].operations;
            failed += first[set].operations;
            problems.push_back(std::string("TopoError: ") + error.what());
            return std::nullopt;
        }
    };

    const double span_cost_ms = args.trace ? calibrateSpanCostMs() : 0.0;
    Tracer tracer;
    // Pass times, per input set.
    std::vector<std::vector<double>> wall_ms(sets);
    std::vector<std::vector<double>> layout_ms(sets);
    std::vector<PassProfile> profiles;
    std::vector<std::map<std::string, double>> samples;
    std::optional<PassOutput> last_decomposed;
    // Each pass, and the set-up before it, runs on the CPUs other
    // tenants slow least at that moment (see quiet_cpu.hh).
    QuietCpus quiet;
    auto pin = [&] { quiet.pin(lanes); };
    const Clock::time_point loop_start = Clock::now();
    const double budget_ms = args.seconds * 1000.0;
    std::size_t passes = 0;
    // One iteration on one input set: a set-up sample, a plain pass
    // and, traced, a decomposed pass.
    auto iterate = [&](std::size_t set) {
        const Inputs &in = inputs[set];
        pin();
        {
            const Inputs again = setUp(set);
            if (again.train.events() != in.train.events() ||
                again.test.events() != in.test.events())
                problems.push_back("set-up made different traces");
        }
        const std::optional<PassOutput> plain =
            guarded(set, [&] { return runPlainPass(spec, in); });
        if (!plain)
            return;
        check(set, *plain, "plain pass");
        wall_ms[set].push_back(plain->wall_ms);
        layout_ms[set].push_back(plain->layout_ms);
        if (!args.trace)
            return;
        tracer.clear();
        pin();
        std::optional<PassOutput> decomposed = guarded(
            set, [&] { return runDecomposedPass(spec, in, &tracer); });
        if (!decomposed)
            return;
        check(set, *decomposed, "decomposed pass");
        profiles.push_back(analysePass(tracer.spans()));
        samples.push_back(layerSample(profiles.back(), *decomposed, *plain,
                                      span_cost_ms));
        last_decomposed = std::move(decomposed);
    };
    // An iteration starts only if one as long as the last still ends
    // inside the budget, so a run measures for --seconds, not beyond.
    double last_ms = 0.0;
    while (passes < min_passes ||
           msSince(loop_start) + last_ms < budget_ms) {
        const Clock::time_point iteration_start = Clock::now();
        iterate(passes % sets);
        ++passes;
        last_ms = msSince(iteration_start);
    }
    const double peak_mb = peakRssMb();

    const std::size_t pass_problems = problems.size();
    // The quality figures are those of set 0, the seed's own inputs.
    Quality quality;
    for (std::size_t set = sets; set-- > 0;) {
        try {
            quality =
                verifyReference(spec, inputs[set], first[set], problems);
        } catch (const topo::TopoError &error) {
            problems.push_back(std::string("check: ") + error.what());
        }
    }
    // Every pass that was not already counted equalled the reference,
    // so a wrong reference (or set-up) makes every operation wrong.
    if (problems.size() != pass_problems ||
        (failed == 0 && !problems.empty()))
        failed = attempted;
    const bool correct = problems.empty();

    std::printf("workload %s  seed %llu  trace scale %g  lanes %d  "
                "input sets %zu  passes %zu\n",
                spec.name.c_str(),
                static_cast<unsigned long long>(args.seed), scale,
                lanes, sets, passes);
    // What the seed's own inputs (set 0) produced.
    const PassOutput &own = first[0];
    std::printf("edges: wcg %zu  trg_select %zu  trg_place %zu  "
                "gbsc layout digest %016llx\n",
                own.wcg_edges, own.select_edges, own.place_edges,
                static_cast<unsigned long long>(
                    layoutDigest(unperturbedGbsc(own).layout)));
    for (const LayoutOutcome &outcome : own.layouts) {
        if (outcome.exact) {
            std::printf("replay %-8s accesses %llu misses %llu\n",
                        outcome.algorithm.c_str(),
                        static_cast<unsigned long long>(
                            outcome.exact->accesses),
                        static_cast<unsigned long long>(
                            outcome.exact->misses));
        }
    }
    for (std::size_t set = 0; set < sets; ++set) {
        std::printf("set %zu pass wall ms:", set);
        for (const double ms : wall_ms[set])
            std::printf(" %.1f", ms);
        std::printf("\n");
    }
    std::printf("setup ms:");
    for (const double ms : setup_ms)
        std::printf(" %.1f", ms);
    std::printf("\n");
    for (const std::string &problem : problems)
        std::printf("CHECK FAILED: %s\n", problem.c_str());

    std::vector<Metric> metrics;
    if (!args.trace) {
        metrics = {
            {"wall_s", "s", meanOfBest(wall_ms) / 1000.0},
            {"layout_s", "s", meanOfBest(layout_ms) / 1000.0},
            {"setup_s", "s", median(setup_ms) / 1000.0},
            {"peak_rss_mb", "MB", peak_mb},
        };
        printMetricTable(metrics);
        // Quality figures and the failure ratio; the result line carries
        // them as per-layer metrics and as attempted/failed.
        printMetricTable({
            {"miss_rate.gbsc", "%", quality.miss_rate_gbsc},
            {"regret.gbsc", "points", quality.regret_gbsc},
            {"est_error.gbsc", "points", quality.est_error_gbsc},
            {"fail_rate", "ratio",
             attempted ? static_cast<double>(failed) /
                             static_cast<double>(attempted)
                       : 0.0},
        });
    } else {
        std::map<std::string, std::vector<double>> series;
        for (const auto &sample : samples) {
            for (const auto &[name, value] : sample)
                series[name].push_back(value);
        }
        std::map<std::string, double> values;
        for (const auto &[name, list] : series)
            values[name] = median(list);
        const PassOutput &facts =
            last_decomposed ? *last_decomposed : first[0];
        values["profile.trg_place_edges"] =
            static_cast<double>(facts.place_edges);
        values["profile.trg_select_edges"] =
            static_cast<double>(facts.select_edges);
        values["trace.fetch_stream_rss_mb"] = facts.stream_mb;
        values["trace.fetches"] = static_cast<double>(facts.fetches);
        values["trace.fetch_runs"] = static_cast<double>(facts.fetch_runs);
        values["trace.run_compression"] =
            facts.fetch_runs ? static_cast<double>(facts.fetches) /
                                   static_cast<double>(facts.fetch_runs)
                             : 0.0;
        values["cache.conflict_share.gbsc"] = quality.conflict_share_gbsc;
        values["sampling.replayed_share"] = facts.replayed_share;
        values["sampling.clusters"] = static_cast<double>(facts.clusters);
        values["workload.synthesis_ms"] = median(setup_ms);
        values["miss_rate.gbsc"] = quality.miss_rate_gbsc;
        values["regret.gbsc"] = quality.regret_gbsc;
        values["est_error.gbsc"] = quality.est_error_gbsc;
        for (const auto &[name, value] : values)
            metrics.push_back({name, layerUnit(name), value});
        printPhaseTable(spec.name, profiles);
        printMetricTable(metrics);
    }
    printResult(correct, attempted, failed, metrics);
    return correct ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(parseArgs(argc, argv));
    } catch (const std::exception &error) {
        std::cerr << "topo_perfbench: " << error.what() << '\n';
        return 2;
    }
}
