/**
 * @file
 * topo_sim: instruction-cache simulation of a trace under a layout.
 *
 *   topo_sim --program=app.prog --trace=app.trace \
 *            [--layout=app.layout] [--cache-kb=8 --assoc=1] \
 *            [--attribute] [--attribution] [--pages]
 *
 * Without --layout the default (source-order) layout is simulated.
 *
 * With --benchmark=NAME[,NAME...] the full pipeline runs in-process on
 * paper-suite benchmarks — synthesis, profiling, placement, and
 * simulation — which makes it the one-command way to capture phase
 * timings with --metrics-out. --algorithms=default,ph,hkc,gbsc runs
 * several placements head-to-head; --bench-out=FILE records every run
 * (wall time, blocks/sec, peak RSS, miss rate) as a BENCH_*.json
 * document for scripts/bench.sh.
 *
 * Both modes simulate through one cell: a --program/--trace run is a
 * grid of one cell, so every reporting flag (--attribute, --pages,
 * --attribution, --taxonomy, sampling, checkpoints) works in both.
 *
 * Observability: --attribution attaches the per-procedure /
 * per-set attribution sink and prints the top conflicting procedure
 * pairs; --timeline-window=N samples windowed miss rates, exported as
 * Chrome trace counters when --trace-out is given. --trace-out alone
 * records phase spans only and never slows the replay.
 *
 * Resilience knobs: --recover salvages the valid prefix of a damaged
 * trace instead of exiting with code 2; --checkpoint/--checkpoint-every
 * write periodic simulator checkpoints, --resume continues from one
 * bit-identically, and --stop-after emulates a preemption point.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>

#include "topo/exec/exec.hh"

#include "topo/cache/attribution.hh"
#include "topo/cache/policy_probe.hh"
#include "topo/cache/simulate.hh"
#include "topo/cache/taxonomy.hh"
#include "topo/eval/page_metric.hh"
#include "topo/eval/reports.hh"
#include "topo/obs/obs.hh"
#include "topo/obs/provenance.hh"
#include "topo/obs/timeline.hh"
#include "topo/placement/placement_table.hh"
#include "topo/program/layout_io.hh"
#include "topo/program/program_io.hh"
#include "topo/resilience/resilience.hh"
#include "topo/sampling/estimator.hh"
#include "topo/sampling/sample_plan.hh"
#include "topo/trace/trace_binary.hh"
#include "topo/util/error.hh"
#include "topo/util/string_utils.hh"
#include "topo/util/sysinfo.hh"
#include "topo/util/table.hh"
#include "topo/workload/paper_suite.hh"

namespace
{

using namespace topo;

/** Checkpoint/resume directives shared by every cell. */
struct ControlState
{
    SimCheckpoint resume_ckpt;
    SimControl control;
    bool active = false;
};

ControlState
controlFrom(const Options &opts)
{
    ControlState state;
    state.control.checkpoint_path = opts.getString("checkpoint", "");
    state.control.checkpoint_every = static_cast<std::uint64_t>(
        opts.getInt("checkpoint-every", 0));
    state.control.stop_after =
        static_cast<std::uint64_t>(opts.getInt("stop-after", 0));
    require(state.control.checkpoint_every == 0 ||
                !state.control.checkpoint_path.empty(),
            "topo_sim: --checkpoint-every requires --checkpoint");
    require(state.control.stop_after == 0 ||
                !state.control.checkpoint_path.empty(),
            "topo_sim: --stop-after requires --checkpoint");
    const std::string resume_path = opts.getString("resume", "");
    if (!resume_path.empty()) {
        state.resume_ckpt = loadCheckpoint(resume_path);
        state.control.resume = &state.resume_ckpt;
    }
    state.active = state.control.resume != nullptr ||
                   !state.control.checkpoint_path.empty();
    return state;
}

void
printResult(std::ostream &os, const SimResult &result,
            const SimControl &control)
{
    os << "accesses:   " << result.accesses << " line fetches\n";
    os << "misses:     " << result.misses << "\n";
    os << "miss rate:  " << result.missRate() * 100.0 << "%\n";
    if (!result.completed) {
        os << "status:     interrupted at " << result.accesses
           << " fetches; checkpoint written to "
           << control.checkpoint_path << " (resume with --resume="
           << control.checkpoint_path << ")\n";
    }
}

/** Print the heaviest evictor→victim pairs from an attribution sink. */
void
printConflicts(std::ostream &os, const Program &program,
               const AttributionSink &sink)
{
    os << '\n';
    const std::vector<ConflictPair> pairs = sink.topPairs(10);
    if (pairs.empty()) {
        os << "no valid-line evictions — the working set fits "
              "the cache\n";
        return;
    }
    TextTable table({"evictor", "victim", "evictions"});
    for (const ConflictPair &pair : pairs) {
        table.addRow({program.proc(pair.evictor).name,
                      program.proc(pair.victim).name,
                      std::to_string(pair.count)});
    }
    table.render(os, "Top conflicting procedure pairs");
    if (sink.droppedPairs() != 0) {
        os << "(pair budget exhausted; " << sink.droppedPairs()
           << " evictions over untracked pairs)\n";
    }
}

/** Print the 3C breakdown and reuse profile of a taxonomy sink. */
void
printTaxonomy(std::ostream &os, const Program &program,
              const TaxonomySink &sink, std::uint64_t misses)
{
    os << '\n';
    auto share = [misses](std::uint64_t count) {
        return misses ? fmtPercent(static_cast<double>(count) /
                                   static_cast<double>(misses))
                      : std::string("0%");
    };
    TextTable classes({"miss class", "misses", "share"});
    classes.addRow({"compulsory", std::to_string(sink.compulsory()),
                    share(sink.compulsory())});
    classes.addRow({"capacity", std::to_string(sink.capacity()),
                    share(sink.capacity())});
    classes.addRow({"conflict", std::to_string(sink.conflict()),
                    share(sink.conflict())});
    classes.render(os, "Miss taxonomy (3C)");

    TextTable hist({"stack distance", "fetches"});
    const auto &buckets = sink.reuseHistogram();
    for (std::size_t b = 0; b < buckets.size(); ++b) {
        if (buckets[b] == 0)
            continue;
        hist.addRow({reuseBucketLabel(b), std::to_string(buckets[b])});
    }
    os << '\n';
    hist.render(os, "Reuse-distance profile");

    const std::vector<ProcTaxonomy> top = sink.topProcs(10);
    if (!top.empty()) {
        TextTable procs(
            {"procedure", "conflict", "capacity", "compulsory"});
        for (const ProcTaxonomy &row : top) {
            procs.addRow({program.proc(row.proc).name,
                          std::to_string(row.conflict),
                          std::to_string(row.capacity),
                          std::to_string(row.compulsory)});
        }
        os << '\n';
        procs.render(os, "Top conflict-miss procedures");
    }
}

/** Observation sinks for one simulation, built on request. */
struct Observation
{
    std::unique_ptr<AttributionSink> attribution;
    std::unique_ptr<TaxonomySink> taxonomy;
    std::unique_ptr<TimelineRecorder> timeline;
    SimObservers observers;
    bool active = false;
};

/**
 * Build the requested sinks: --attribution arms the attribution sink;
 * --taxonomy arms the 3C classifier / reuse-distance profiler;
 * --timeline-window arms the timeline. --trace-out alone arms nothing:
 * per-fetch data costs a per-fetch replay, so only its own flag asks
 * for it.
 */
Observation
observationFrom(const Options &opts, const Program &program,
                const Layout &layout, const CacheConfig &cache,
                const FetchStream &stream)
{
    Observation obs;
    if (opts.getBool("attribution", false)) {
        obs.attribution = std::make_unique<AttributionSink>(
            program, layout, cache, cache.line_bytes);
        obs.observers.attribution = obs.attribution.get();
    }
    if (opts.getBool("taxonomy", false)) {
        obs.taxonomy = std::make_unique<TaxonomySink>(
            program, stream.programLineCount(), cache);
        obs.observers.taxonomy = obs.taxonomy.get();
    }
    const std::uint64_t window = static_cast<std::uint64_t>(
        opts.getInt("timeline-window", 0));
    if (window != 0) {
        obs.timeline = std::make_unique<TimelineRecorder>(
            window, program.procCount());
        obs.observers.timeline = obs.timeline.get();
    }
    obs.active = obs.observers.any();
    return obs;
}

/** Print the reports of the attached sinks; export timeline counters. */
void
reportObservation(std::ostream &os, const Program &program,
                  const Observation &obs, std::uint64_t misses,
                  const std::string &track)
{
    if (obs.attribution)
        printConflicts(os, program, *obs.attribution);
    if (obs.taxonomy)
        printTaxonomy(os, program, *obs.taxonomy, misses);
    if (obs.timeline && ChromeTraceLog::global().enabled())
        obs.timeline->exportCounters(ChromeTraceLog::global(), track);
}

/** One simulated (benchmark, algorithm) cell of a bench run. */
struct RunRecord
{
    std::string benchmark;
    std::string algorithm;
    std::uint64_t accesses = 0;
    std::uint64_t misses = 0;
    double miss_rate = 0.0;
    double wall_ms = 0.0;
    /** 3C breakdown; meaningful only when has_taxonomy is set. */
    bool has_taxonomy = false;
    std::uint64_t compulsory = 0;
    std::uint64_t capacity = 0;
    std::uint64_t conflict = 0;
    std::vector<std::uint64_t> reuse_hist;
    /** Sampled-run provenance; meaningful only when has_sampling. */
    bool has_sampling = false;
    std::uint64_t sample_window_runs = 0;
    std::uint64_t sample_windows = 0;
    std::uint64_t sample_clusters = 0;
    std::uint64_t sample_selected = 0;
    double sample_replayed_fraction = 0.0;
    double sample_est_miss_rate = 0.0;
    /** --sample-verify extras; meaningful only when has_exact. */
    bool has_exact = false;
    double sample_exact_miss_rate = 0.0;
    double sample_abs_error = 0.0;

    double
    blocksPerSec() const
    {
        return wall_ms > 0.0 ? static_cast<double>(accesses) /
                                   (wall_ms / 1000.0)
                             : 0.0;
    }
};

/** Copy a sample plan + estimate into a run record. */
void
recordSampling(RunRecord &record, const SamplePlan &plan,
               const SampledSimResult &est)
{
    record.has_sampling = true;
    record.sample_window_runs = plan.window_runs;
    record.sample_windows = plan.window_count;
    record.sample_clusters = plan.cluster_count;
    record.sample_selected = plan.selected.size();
    record.sample_replayed_fraction = plan.replayedFraction();
    record.sample_est_miss_rate = est.estMissRate();
    record.accesses = est.accesses;
    record.misses = static_cast<std::uint64_t>(
        std::llround(est.est_misses));
    record.miss_rate = est.estMissRate();
}

/** Print a sampled run's estimate and plan. */
void
printSampledResult(std::ostream &os, const SamplePlan &plan,
                   const SampledSimResult &est)
{
    os << "accesses:   " << est.accesses << " line fetches\n";
    os << "est misses: " << est.est_misses << "\n";
    os << "est miss rate: " << est.estMissRate() * 100.0 << "%\n";
    os << "sampling:   simpoint window=" << plan.window_runs
       << " windows=" << plan.window_count << " clusters="
       << plan.cluster_count << " segments=" << plan.segments.size()
       << " replayed=" << plan.replayedFraction() * 100.0 << "%\n";
}

/** Reject observation/checkpoint surfaces that need every reference. */
void
requireExactOnly(const Options &opts, bool ctl_active)
{
    require(!ctl_active, "topo_sim: --sample does not combine with "
                         "checkpoint/resume (sampled replays skip "
                         "references)");
    require(!opts.getBool("attribution", false) &&
                !opts.getBool("taxonomy", false) &&
                opts.getInt("timeline-window", 0) == 0 &&
                !opts.getBool("attribute", false) &&
                !opts.getBool("pages", false),
            "topo_sim: --sample does not combine with "
            "--attribute/--attribution/--taxonomy/--timeline-window/"
            "--pages (they observe every reference; run them exact)");
}

/** Copy a taxonomy sink's tallies into a run record. */
void
recordTaxonomy(RunRecord &record, const TaxonomySink &sink)
{
    record.has_taxonomy = true;
    record.compulsory = sink.compulsory();
    record.capacity = sink.capacity();
    record.conflict = sink.conflict();
    record.reuse_hist.assign(sink.reuseHistogram().begin(),
                             sink.reuseHistogram().end());
}

/** Write the BENCH_*.json document consumed by scripts/bench.sh. */
void
writeBenchJson(const std::string &path, const std::string &benchmarks,
               double trace_scale, const CacheConfig &cache,
               const std::vector<RunRecord> &runs)
{
    JsonValue root = JsonValue::object();
    root.set("topo_bench", JsonValue::number(1));
    root.set("date", JsonValue::string(utcTimestamp()));
    root.set("benchmarks", JsonValue::string(benchmarks));
    root.set("trace_scale", JsonValue::number(trace_scale));
    root.set("cache", JsonValue::string(cache.describe()));
    // The replacement policy already rides in the cache description;
    // the explicit key is emitted only for non-default policies so
    // pre-policy bench records stay byte-identical.
    if (cache.policy != ReplacementPolicy::kLru) {
        root.set("policy", JsonValue::string(
                               replacementPolicyName(cache.policy)));
    }
    // Parallelism provenance: the configured lane count and the OS
    // threads that participate (pool workers + the calling thread).
    root.set("jobs", JsonValue::number(execJobs()));
    root.set("threads", JsonValue::number(execJobs()));
    root.set("peak_rss_kb",
             JsonValue::number(static_cast<double>(peakRssKb())));
    root.set("provenance", provenanceJson());
    JsonValue list = JsonValue::array();
    for (const RunRecord &run : runs) {
        JsonValue row = JsonValue::object();
        row.set("benchmark", JsonValue::string(run.benchmark));
        row.set("algorithm", JsonValue::string(run.algorithm));
        row.set("accesses",
                JsonValue::number(static_cast<double>(run.accesses)));
        row.set("misses",
                JsonValue::number(static_cast<double>(run.misses)));
        row.set("miss_rate", JsonValue::number(run.miss_rate));
        row.set("wall_ms", JsonValue::number(run.wall_ms));
        row.set("blocks_per_sec", JsonValue::number(run.blocksPerSec()));
        if (run.has_taxonomy) {
            JsonValue taxonomy = JsonValue::object();
            taxonomy.set("compulsory",
                         JsonValue::number(
                             static_cast<double>(run.compulsory)));
            taxonomy.set("capacity",
                         JsonValue::number(
                             static_cast<double>(run.capacity)));
            taxonomy.set("conflict",
                         JsonValue::number(
                             static_cast<double>(run.conflict)));
            JsonValue hist = JsonValue::array();
            for (const std::uint64_t count : run.reuse_hist)
                hist.push(
                    JsonValue::number(static_cast<double>(count)));
            taxonomy.set("reuse_hist", std::move(hist));
            row.set("taxonomy", std::move(taxonomy));
        }
        if (run.has_sampling) {
            JsonValue sampling = JsonValue::object();
            sampling.set("mode", JsonValue::string("simpoint"));
            sampling.set("window_runs",
                         JsonValue::number(static_cast<double>(
                             run.sample_window_runs)));
            sampling.set("windows",
                         JsonValue::number(static_cast<double>(
                             run.sample_windows)));
            sampling.set("clusters",
                         JsonValue::number(static_cast<double>(
                             run.sample_clusters)));
            sampling.set("selected_windows",
                         JsonValue::number(static_cast<double>(
                             run.sample_selected)));
            sampling.set("replayed_fraction",
                         JsonValue::number(
                             run.sample_replayed_fraction));
            sampling.set("est_miss_rate",
                         JsonValue::number(run.sample_est_miss_rate));
            if (run.has_exact) {
                sampling.set("exact_miss_rate",
                             JsonValue::number(
                                 run.sample_exact_miss_rate));
                sampling.set("abs_error",
                             JsonValue::number(run.sample_abs_error));
            }
            row.set("sampling", std::move(sampling));
        }
        list.push(std::move(row));
    }
    root.set("runs", std::move(list));
    std::ofstream os(path);
    if (!os.good())
        fail("topo_sim: cannot open --bench-out file '" + path + "'");
    os << root.toString() << '\n';
    logInfo("bench", "bench record written",
            {{"file", path}, {"runs", runs.size()}});
}

/** Print the procedures that miss most (--attribute). */
void
printMissContributors(std::ostream &os, const Program &program,
                      const SimResult &result)
{
    std::vector<std::pair<std::uint64_t, ProcId>> by_misses;
    for (ProcId i = 0; i < program.procCount(); ++i)
        by_misses.emplace_back(result.misses_by_proc[i], i);
    std::sort(by_misses.rbegin(), by_misses.rend());
    TextTable table({"procedure", "misses", "share"});
    for (std::size_t i = 0; i < by_misses.size() && i < 15; ++i) {
        if (by_misses[i].first == 0)
            break;
        table.addRow({program.proc(by_misses[i].second).name,
                      std::to_string(by_misses[i].first),
                      fmtPercent(static_cast<double>(by_misses[i].first) /
                                 static_cast<double>(result.misses))});
    }
    os << '\n';
    table.render(os, "Top miss contributors");
}

double
msSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/**
 * Simulate @p layout on the test trace and render the cell's report
 * into @p out: the one code path behind a --program/--trace run and
 * every --benchmark grid cell. With a sample plan the cell estimates
 * from the plan's segments and replays @p stream exactly only as the
 * --sample-verify reference (callers pass a stream only then). Without
 * one it replays @p stream with the requested sinks, checkpoint
 * control, --attribute and --pages. Returns @p record with the results
 * filled in.
 */
RunRecord
simulateCell(const Options &opts, const CacheConfig &cache,
             const ControlState &ctl, const Program &program,
             const Layout &layout, const Trace &test,
             const SamplePlan *plan, const FetchStream *stream,
             RunRecord record, std::ostream &out)
{
    std::optional<SampledSimResult> est;
    if (plan != nullptr) {
        const auto start = std::chrono::steady_clock::now();
        est = estimateLayout(program, layout, test, *plan, cache, false);
        record.wall_ms = msSince(start);
    }
    const bool attribute = opts.getBool("attribute", false);
    Observation obs;
    SimResult result;
    if (stream != nullptr) {
        obs = observationFrom(opts, program, layout, cache, *stream);
        require(!obs.active || !ctl.active,
                "topo_sim: --attribution/--timeline-window do not "
                "combine with checkpoint/resume");
        const auto start = std::chrono::steady_clock::now();
        result = simulateLayout(program, layout, *stream, cache,
                                attribute,
                                ctl.active ? &ctl.control : nullptr,
                                obs.active ? &obs.observers : nullptr);
        if (plan == nullptr)
            record.wall_ms = msSince(start);
    }

    if (plan != nullptr) {
        printSampledResult(out, *plan, *est);
        recordSampling(record, *plan, *est);
        if (stream != nullptr) {
            record.has_exact = true;
            record.sample_exact_miss_rate = result.missRate();
            record.sample_abs_error =
                std::fabs(est->estMissRate() - result.missRate());
            out << "exact miss rate: " << result.missRate() * 100.0
                << "%\n";
            out << "est error:  " << record.sample_abs_error * 100.0
                << "% (abs miss rate)\n";
        }
        return record;
    }
    printResult(out, result, ctl.control);
    reportObservation(out, program, obs, result.misses,
                      record.benchmark + "/" + record.algorithm);
    if (attribute)
        printMissContributors(out, program, result);
    if (opts.getBool("pages", false)) {
        const PageStats pages = measurePageStats(program, layout, *stream);
        out << "\npages touched: " << pages.pages_touched
            << ", switches/kacc: " << pages.switchesPerKiloAccess()
            << ", LRU faults (16 pages): " << pages.lru_faults << "\n";
    }
    record.accesses = result.accesses;
    record.misses = result.misses;
    record.miss_rate = result.missRate();
    if (obs.taxonomy)
        recordTaxonomy(record, *obs.taxonomy);
    return record;
}

/** Everything one grid cell produces. */
struct CellResult
{
    RunRecord record;
    std::string output;
    std::unique_ptr<MetricsRegistry> metrics =
        std::make_unique<MetricsRegistry>();
};

/** A --program/--trace[/--layout] run: a grid of one cell. */
std::vector<CellResult>
fileCells(const Options &opts, const EvalOptions &eval,
          const ControlState &ctl)
{
    std::vector<CellResult> cells(1);
    CellResult &cell = cells.front();
    MetricsScope scope(*cell.metrics);
    const std::string program_path = opts.getString("program", "");
    const std::string trace_path = opts.getString("trace", "");
    require(!program_path.empty() && !trace_path.empty(),
            "topo_sim: --program and --trace are required");
    const Program program = loadProgram(program_path);
    TraceReadOptions ropts;
    ropts.recover = opts.getBool("recover", false);
    Trace trace = loadAnyTrace(trace_path, ropts);
    trace.validate(program);

    const std::string layout_path = opts.getString("layout", "");
    const Layout layout =
        layout_path.empty()
            ? Layout::defaultOrder(program, eval.cache.line_bytes)
            : loadLayout(layout_path, program);
    layout.validate(program, eval.cache.line_bytes);

    std::optional<SamplePlan> plan;
    if (eval.sampling.active()) {
        plan.emplace(buildSamplePlan(program, trace,
                                     eval.cache.line_bytes, eval.sampling));
    }
    std::optional<FetchStream> stream;
    if (!plan || eval.sampling.verify)
        stream.emplace(program, trace, eval.cache.line_bytes);

    std::ostringstream out;
    out << "cache:      " << eval.cache.describe() << "\n";
    out << "layout:     "
        << (layout_path.empty() ? "default (source order)" : layout_path)
        << "\n";
    RunRecord record;
    record.benchmark = trace_path;
    record.algorithm = layout_path.empty() ? "default" : layout_path;
    cell.record = simulateCell(opts, eval.cache, ctl, program, layout,
                               trace, plan ? &*plan : nullptr,
                               stream ? &*stream : nullptr,
                               std::move(record), out);
    cell.output = out.str();
    return cells;
}

/**
 * Full pipeline on synthetic paper benchmarks: synthesise traces,
 * profile, place with each requested algorithm, and simulate the
 * testing trace.
 *
 * The (benchmark, algorithm) grid fans out on the shared pool. Each
 * cell records into its own metrics registry and renders into its own
 * buffer; cells are joined in grid order, so stdout, --metrics-out,
 * and the bench record are byte-identical for every --jobs value
 * (DESIGN.md §9).
 */
std::vector<CellResult>
benchmarkCells(const Options &opts, const EvalOptions &eval,
               const ControlState &ctl, double scale)
{
    std::vector<std::string> algorithms;
    if (opts.has("algorithms"))
        algorithms = split(opts.getString("algorithms", ""), ',');
    else
        algorithms.push_back(opts.getString("algorithm", "gbsc"));
    require(!algorithms.empty(), "topo_sim: --algorithms is empty");
    for (const std::string &name : algorithms)
        placementEntry(name); // validate early

    const std::string bench_names = opts.getString("benchmark", "");
    const std::vector<std::string> benches =
        bench_names == "*" ? paperBenchmarkNames()
                           : split(bench_names, ',');
    const bool single = benches.size() == 1 && algorithms.size() == 1;
    require(!ctl.active || single,
            "topo_sim: checkpoint/resume needs a single benchmark and "
            "algorithm");

    // Phase 1: profile every benchmark (synthesis + TRG/WCG builds —
    // the expensive part; each build is one serial pass).
    struct BenchProfile
    {
        std::unique_ptr<ProfileBundle> bundle;
        std::unique_ptr<MetricsRegistry> metrics;
    };
    std::vector<BenchProfile> profiles =
        parallelMap(benches.size(), [&](std::size_t b) {
            BenchProfile profile;
            profile.metrics = std::make_unique<MetricsRegistry>();
            MetricsScope scope(*profile.metrics);
            const BenchmarkCase bench =
                paperBenchmark(benches[b], scale);
            profile.bundle =
                std::make_unique<ProfileBundle>(bench, eval);
            return profile;
        });
    for (const BenchProfile &profile : profiles)
        MetricsRegistry::current().mergeFrom(*profile.metrics);

    // Phase 2: the simulation grid, one task per cell, row-major so
    // the joined order matches the serial loop nest.
    return parallelMap(
        benches.size() * algorithms.size(), [&](std::size_t i) {
            const std::size_t b = i / algorithms.size();
            const std::size_t a = i % algorithms.size();
            const ProfileBundle &bundle = *profiles[b].bundle;

            CellResult cell;
            MetricsScope scope(*cell.metrics);
            std::ostringstream out;
            if (a == 0) {
                out << "benchmark:  " << bundle.name() << "\n";
                out << "cache:      " << eval.cache.describe() << "\n";
            }
            const PlacementContext ctx = bundle.makeContext();
            const PlacementAlgorithm &algo =
                placementEntry(algorithms[a]).algorithm;
            const Layout layout = algo.place(ctx);
            layout.validate(bundle.program(), eval.cache.line_bytes);

            out << "algorithm:  " << algo.name() << "\n";
            RunRecord record;
            record.benchmark = bundle.name();
            record.algorithm = algorithms[a];
            const bool exact_replay =
                !bundle.sampled() || eval.sampling.verify;
            cell.record = simulateCell(
                opts, eval.cache, ctl, bundle.program(), layout,
                bundle.testTrace(),
                bundle.sampled() ? &bundle.testPlan() : nullptr,
                exact_replay ? &bundle.testStream() : nullptr,
                std::move(record), out);
            out << "\n";
            cell.output = out.str();
            return cell;
        });
}

/**
 * --probe-policy: CacheQuery-style black-box self-check. Every
 * implemented replacement policy is probed through the real cache
 * models, observing only hit/miss bits, and must be uniquely
 * identified by the inference battery. A failure means two policies
 * became behaviourally indistinguishable (or one changed behaviour) —
 * a simulator bug by construction, reported as an internal error.
 */
int
runProbePolicy(const Options &opts)
{
    const std::uint64_t seed = static_cast<std::uint64_t>(opts.getInt(
        "policy-seed", static_cast<std::int64_t>(kDefaultPolicySeed)));
    TextTable table({"policy", "identified as", "signature bits"});
    bool ok = true;
    for (const ReplacementPolicy policy : kAllReplacementPolicies) {
        const PolicyProbeResult result = inferPolicy(
            [policy, seed](const CacheConfig &geometry) {
                CacheConfig config = geometry;
                config.policy = policy;
                config.policy_seed = seed;
                return makeCacheTarget(config);
            },
            seed);
        std::string verdict;
        if (result.unique()) {
            verdict = replacementPolicyName(result.identified());
            ok = ok && result.identified() == policy;
        } else if (result.matches.empty()) {
            verdict = "(no match)";
            ok = false;
        } else {
            verdict = "(ambiguous:";
            for (const ReplacementPolicy match : result.matches) {
                verdict += ' ';
                verdict += replacementPolicyName(match);
            }
            verdict += ')';
            ok = false;
        }
        table.addRow({replacementPolicyName(policy), verdict,
                      std::to_string(result.observed.bits.size())});
    }
    table.render(std::cout, "Black-box policy identification");
    if (!ok) {
        failInternal("topo_sim: --probe-policy could not uniquely "
                     "identify every replacement policy");
    }
    std::cout << "all replacement policies uniquely identified\n";
    return 0;
}

int
run(const Options &opts)
{
    if (opts.getBool("probe-policy", false))
        return runProbePolicy(opts);
    const bool grid = !opts.getString("benchmark", "").empty();
    EvalOptions eval = evalOptionsFrom(opts);
    eval.sampling = samplingFrom(opts);
    setProvenance("cache", eval.cache.describe());
    if (eval.cache.policy != ReplacementPolicy::kLru) {
        setProvenance("policy",
                      replacementPolicyName(eval.cache.policy));
    }
    const double scale = grid ? traceScaleFrom(opts) : 1.0;
    if (grid)
        setProvenance("trace_scale", std::to_string(scale));
    const ControlState ctl = controlFrom(opts);
    if (eval.sampling.active()) {
        requireExactOnly(opts, ctl.active);
        setProvenance("sampling", "simpoint");
    }

    const std::vector<CellResult> cells =
        grid ? benchmarkCells(opts, eval, ctl, scale)
             : fileCells(opts, eval, ctl);
    std::vector<RunRecord> runs;
    runs.reserve(cells.size());
    for (const CellResult &cell : cells) {
        std::cout << cell.output;
        MetricsRegistry::current().mergeFrom(*cell.metrics);
        runs.push_back(cell.record);
    }
    const std::string bench_out = opts.getString("bench-out", "");
    if (!bench_out.empty()) {
        writeBenchJson(bench_out,
                       opts.getString(grid ? "benchmark" : "trace", ""),
                       scale, eval.cache, runs);
    }

    // The measured error bound: with --sample-verify and
    // --sample-max-error, any cell whose estimate strays beyond the
    // bound fails the run (after the bench record is written, so the
    // offending numbers are on disk for inspection).
    if (eval.sampling.max_error > 0.0) {
        std::string violations;
        for (const RunRecord &run : runs) {
            if (run.has_exact &&
                run.sample_abs_error > eval.sampling.max_error) {
                violations += " " + run.benchmark + "/" +
                              run.algorithm + "=" +
                              std::to_string(run.sample_abs_error);
            }
        }
        if (!violations.empty())
            fail("topo_sim: sampling miss-rate error exceeds "
                 "--sample-max-error=" +
                     std::to_string(eval.sampling.max_error) + ":" +
                     violations);
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const ToolSpec spec{
        "topo_sim",
        "topo_sim: simulate a trace under a layout.\n"
        "  --program=FILE --trace=FILE [--layout=FILE]\n"
        "  --benchmark=NAME[,NAME...]|'*' [--algorithm=NAME]\n"
        "      [--algorithms=default,ph,hkc,gbsc] (full in-process\n"
        "      pipeline on paper-suite benchmarks instead; '*' runs\n"
        "      the whole Table 1 suite)\n"
        "  --jobs=N (parallel lanes for the grid and sampling;\n"
        "      results are bit-identical for every N)\n"
        "  --cache-kb=N --line-bytes=N --assoc=N\n"
        "  --policy=lru|plru|srrip|fifo|random (set-associative\n"
        "      replacement policy; --policy-seed=N seeds 'random')\n"
        "  --probe-policy (black-box policy identification self-check)\n"
        "  --attribute (per-procedure misses) --pages (page stats);\n"
        "      both print per cell in --benchmark runs too\n"
        "  --attribution (conflict-pair attribution sink)\n"
        "  --taxonomy (3C miss classes + reuse-distance profile)\n"
        "  --timeline-window=N (windowed miss-rate samples; the\n"
        "      only source of --trace-out counter tracks)\n"
        "  --sample=simpoint (representative-interval sampling:\n"
        "      cluster trace windows, replay one weighted\n"
        "      representative per cluster)\n"
        "  --sample-window=N (runs per window; 0 = auto)\n"
        "  --sample-k=N (clusters; 0 = auto BIC elbow)\n"
        "  --sample-max-k=N --sample-warmup=N --sample-seed=N\n"
        "  --sample-verify (also run exact; report the error)\n"
        "  --sample-max-error=F (fail when |est-exact| miss-rate\n"
        "      error exceeds F; requires --sample-verify)\n"
        "  --bench-out=FILE (BENCH_*.json run record)\n"
        "  --recover (salvage a damaged trace and continue)\n"
        "  --checkpoint=FILE --checkpoint-every=N (periodic state)\n"
        "  --resume=FILE (continue bit-identically) --stop-after=N\n"
        "  --fault-spec=KIND@P[:seed] (read_short|bitflip|throw_io)\n"
        "  --log-level=L --log-file=FILE --metrics-out=FILE\n"
        "  --trace-out=FILE (Chrome trace events for Perfetto)\n",
        {"program", "trace", "layout", "benchmark", "algorithm",
         "algorithms", "trace-scale", "cache-kb", "line-bytes", "assoc",
         "policy", "policy-seed", "probe-policy",
         "chunk-bytes", "coverage", "q-factor", "attribute",
         "attribution", "taxonomy", "timeline-window", "bench-out",
         "pages",
         "sample", "sample-window", "sample-k", "sample-max-k",
         "sample-warmup", "sample-seed", "sample-verify",
         "sample-max-error",
         "recover", "checkpoint", "checkpoint-every", "resume",
         "stop-after"},
        run,
    };
    return topo::toolMain(argc, argv, spec);
}
