/**
 * @file
 * topo_profile: the persistent-profile-store driver (DESIGN.md §12).
 *
 * Subcommand CLI over ProfileStore:
 *
 *   topo_profile init    --store=DIR --program=FILE [knobs]
 *   topo_profile ingest  --store=DIR --trace=F1[,F2,...]
 *   topo_profile status  --store=DIR [--json-out=FILE]
 *   topo_profile compact --store=DIR
 *   topo_profile place   --store=DIR [--algorithm=NAME]
 *                        [--replace-threshold=F] [--force]
 *                        [--out-layout=FILE] [--json-out=FILE]
 *
 * `ingest` merges trace shards into the standing profile through the
 * write-ahead journal; `place` recomputes the layout only when the
 * TRG_select drift since the last accepted placement exceeds the
 * threshold (incremental re-placement). Every subcommand reports the
 * store state — generation, applied sequence, drift, salvage — in
 * --json-out and the shared --metrics-out machinery.
 */

#include <cmath>
#include <fstream>
#include <iostream>
#include <vector>

#include "topo/eval/layout_diff.hh"
#include "topo/eval/reports.hh"
#include "topo/obs/obs.hh"
#include "topo/placement/decision_log.hh"
#include "topo/obs/provenance.hh"
#include "topo/program/layout_io.hh"
#include "topo/program/program_io.hh"
#include "topo/resilience/resilience.hh"
#include "topo/sampling/sample_plan.hh"
#include "topo/store/profile_store.hh"
#include "topo/trace/trace_binary.hh"
#include "topo/util/error.hh"
#include "topo/util/string_utils.hh"
#include "topo/workload/paper_suite.hh"
#include "topo/workload/trace_synthesizer.hh"

namespace
{

using namespace topo;

std::string
baseName(const std::string &path)
{
    const std::size_t slash = path.find_last_of('/');
    return slash == std::string::npos ? path : path.substr(slash + 1);
}

std::string
storeDir(const Options &opts)
{
    const std::string dir = opts.getString("store", "");
    require(!dir.empty(), "topo_profile: --store=DIR is required");
    return dir;
}

/** Drift as JSON: "inf" until the first placement. */
JsonValue
driftJson(double drift)
{
    return std::isfinite(drift) ? JsonValue::number(drift)
                                : JsonValue::string("inf");
}

/** Shared store-state JSON fragment. */
JsonValue
storeStateJson(const ProfileStore &store)
{
    const StoredProfile &profile = store.profile();
    JsonValue state = JsonValue::object();
    state.set("dir", JsonValue::string(store.dir()));
    state.set("generation", JsonValue::count(store.generation()));
    state.set("applied_seq", JsonValue::count(store.appliedSeq()));
    state.set("shards", JsonValue::count(profile.shards.size()));
    state.set("total_runs", JsonValue::count(profile.stats.total_runs));
    state.set("total_bytes", JsonValue::count(profile.stats.total_bytes));
    state.set("layout_algorithm",
              JsonValue::string(profile.layout_algorithm));
    state.set("drift", driftJson(store.drift()));
    const StoreOpenStats &os = store.openStats();
    JsonValue open = JsonValue::object();
    open.set("snapshot_generation", JsonValue::count(os.snapshot_generation));
    open.set("salvaged", JsonValue::boolean(os.salvaged));
    open.set("replayed_records", JsonValue::count(os.replayed_records));
    open.set("dropped_bytes", JsonValue::count(os.dropped_bytes));
    open.set("dropped_records", JsonValue::count(os.dropped_records));
    state.set("open", std::move(open));
    return state;
}

/** A --json-out document: the topo_store marker and the command. */
JsonValue
storeDoc(const char *command)
{
    JsonValue doc = JsonValue::object();
    doc.set("topo_store", JsonValue::number(1));
    doc.set("command", JsonValue::string(command));
    return doc;
}

void
writeJsonIfRequested(const Options &opts, const JsonValue &doc)
{
    const std::string path = opts.getString("json-out", "");
    if (path.empty())
        return;
    std::ofstream out(path);
    if (!out.good())
        fail("topo_profile: cannot open '" + path + "' for writing");
    doc.write(out);
    out << "\n";
}

void
announceGeneration(const ProfileStore &store)
{
    setProvenance("profile_generation",
                  std::to_string(store.generation()));
    setProvenance("profile_applied_seq",
                  std::to_string(store.appliedSeq()));
}

int
runInit(const Options &opts)
{
    const std::string program_path = opts.getString("program", "");
    require(!program_path.empty(),
            "topo_profile init: --program=FILE is required");
    const EvalOptions eval = evalOptionsFrom(opts);
    StoreConfig config;
    config.program = loadProgram(program_path);
    config.cache = eval.cache;
    config.chunk_bytes = eval.chunk_bytes;
    config.byte_budget = static_cast<std::uint64_t>(
        eval.q_budget_factor * eval.cache.size_bytes);
    config.coverage = eval.popularity.coverage;
    config.build_pairs = opts.getBool("build-pairs", false);
    config.pair_window = eval.pair_window;
    ProfileStore::init(storeDir(opts), config);
    std::cerr << "initialized profile store at " << storeDir(opts)
              << " (" << config.program.procCount()
              << " procedures)\n";
    return 0;
}

int
runIngest(const Options &opts)
{
    const std::string traces = opts.getString("trace", "");
    const std::string synth = opts.getString("synth", "");
    require(!traces.empty() || !synth.empty(),
            "topo_profile ingest: --trace=FILE[,FILE...] or "
            "--synth=BENCH[,BENCH...] is required");
    require(traces.empty() || synth.empty(),
            "topo_profile ingest: --trace and --synth are mutually "
            "exclusive");
    ProfileStore store = ProfileStore::open(storeDir(opts));
    const SamplingOptions sampling = samplingFrom(opts);
    require(!sampling.verify,
            "topo_profile ingest: --sample-verify only applies to "
            "topo_sim (ingest has no exact replay to compare against)");
    if (sampling.active())
        setProvenance("sampling", "simpoint");
    const std::string label_override = opts.getString("label", "");
    std::uint64_t ingested = 0;
    auto ingestOne = [&](const std::string &source, const Trace &trace) {
        std::string label =
            label_override.empty() ? source : label_override;
        if (!label_override.empty() && ingested > 0)
            label += "#" + std::to_string(ingested);
        store.ingest(
            buildShardDelta(store.config(), label, trace, sampling));
        ++ingested;
        std::cerr << "ingested " << source << " as shard '" << label
                  << "' (seq " << store.appliedSeq() << ")\n";
    };
    if (!synth.empty()) {
        // In-process synthesis of paper-suite training traces: the
        // store-ingest analogue of topo_sim --benchmark, and the path
        // where --trace-scale applies (file ingest replays the trace
        // exactly as recorded).
        const double scale = traceScaleFrom(opts);
        for (const std::string &raw : split(synth, ',')) {
            const std::string name = trim(raw);
            if (name.empty())
                continue;
            const BenchmarkCase bench = paperBenchmark(name, scale);
            ingestOne(name + "-train",
                      synthesizeTrace(bench.model, bench.train));
        }
    } else {
        require(!opts.has("trace-scale"),
                "topo_profile ingest: --trace-scale only applies to "
                "--synth benchmarks (file traces replay as recorded)");
        TraceReadOptions ropts;
        ropts.recover = opts.getBool("recover", false);
        for (const std::string &raw : split(traces, ',')) {
            const std::string path = trim(raw);
            if (path.empty())
                continue;
            ingestOne(baseName(path), loadAnyTrace(path, ropts));
        }
    }
    require(ingested > 0,
            "topo_profile ingest: no trace files given");
    announceGeneration(store);
    JsonValue doc = storeDoc("ingest");
    doc.set("ingested", JsonValue::count(ingested));
    if (sampling.active())
        doc.set("sampling", JsonValue::string("simpoint"));
    doc.set("store", storeStateJson(store));
    writeJsonIfRequested(opts, doc);
    return 0;
}

int
runStatus(const Options &opts)
{
    const ProfileStore store = ProfileStore::open(storeDir(opts));
    announceGeneration(store);
    const StoredProfile &profile = store.profile();
    std::cout << "store " << store.dir() << "\n"
              << "  generation   " << store.generation()
              << (store.openStats().salvaged ? " (salvaged)" : "")
              << "\n"
              << "  applied seq  " << store.appliedSeq() << "\n"
              << "  shards       " << profile.shards.size() << "\n"
              << "  total runs   " << profile.stats.total_runs << "\n"
              << "  total bytes  " << profile.stats.total_bytes << "\n"
              << "  layout       "
              << (profile.layout_algorithm.empty()
                      ? "(never placed)"
                      : profile.layout_algorithm)
              << "\n"
              << "  drift        " << store.drift() << "\n";
    for (const ShardInfo &shard : profile.shards) {
        std::cout << "  shard seq=" << shard.seq << " events="
                  << shard.events << " " << shard.label << "\n";
    }
    if (store.openStats().dropped_bytes > 0) {
        std::cout << "  journal: dropped " << store.openStats().dropped_bytes
                  << " torn byte(s) at open\n";
    }
    JsonValue doc = storeDoc("status");
    doc.set("store", storeStateJson(store));
    writeJsonIfRequested(opts, doc);
    return 0;
}

int
runCompact(const Options &opts)
{
    ProfileStore store = ProfileStore::open(storeDir(opts));
    store.compact();
    announceGeneration(store);
    std::cerr << "compacted store to generation " << store.generation()
              << " (applied seq " << store.appliedSeq() << ")\n";
    JsonValue doc = storeDoc("compact");
    doc.set("store", storeStateJson(store));
    writeJsonIfRequested(opts, doc);
    return 0;
}

int
runPlace(const Options &opts)
{
    ProfileStore store = ProfileStore::open(storeDir(opts));
    const std::string algorithm =
        opts.getString("algorithm", "gbsc");
    const double threshold =
        opts.getDouble("replace-threshold", 0.1);
    require(threshold >= 0.0,
            "topo_profile place: --replace-threshold must be >= 0");
    const bool force = opts.getBool("force", false);
    const Program &program = store.config().program;

    // Explainability rides on --json-out: snapshot the outgoing
    // layout and thread a decision log through the placement so a
    // drift-triggered re-placement can be reported as a structural
    // diff with per-decision provenance. Without --json-out the
    // placement runs with a null log, exactly as before.
    const bool want_explain = !opts.getString("json-out", "").empty();
    const std::string prev_algorithm = store.profile().layout_algorithm;
    const bool have_previous = want_explain && !prev_algorithm.empty();
    const Layout previous =
        layoutFromAddresses(store.profile().layout_addresses);

    DecisionLog decisions;
    const StorePlaceResult result =
        store.place(algorithm, threshold, force,
                    want_explain ? &decisions : nullptr);
    announceGeneration(store);
    std::cerr << "drift " << result.drift << " vs threshold "
              << threshold << ": "
              << (result.placed ? "layout recomputed with " +
                                      result.algorithm
                                : "layout retained (" +
                                      result.algorithm + ")")
              << "\n";
    const std::string out_layout = opts.getString("out-layout", "");
    if (!out_layout.empty()) {
        LayoutProvenance provenance;
        provenance.algorithm = result.algorithm;
        provenance.cache = store.config().cache.describe();
        provenance.git_sha = buildGitSha();
        saveLayout(out_layout, program, result.layout, provenance);
        std::cerr << "wrote layout to " << out_layout << "\n";
    }
    JsonValue doc = storeDoc("place");
    doc.set("algorithm", JsonValue::string(result.algorithm));
    doc.set("drift", driftJson(result.drift));
    doc.set("threshold", JsonValue::number(threshold));
    doc.set("replaced", JsonValue::boolean(result.placed));
    doc.set("store", storeStateJson(store));
    if (want_explain && result.placed) {
        decisions.publishMetrics(program);
        JsonValue dec = JsonValue::object();
        dec.set("kept", JsonValue::count(decisions.kept()));
        dec.set("dropped", JsonValue::count(decisions.dropped()));
        dec.set("coverage",
                JsonValue::number(decisions.coverage(program)));
        doc.set("decisions", std::move(dec));
        if (have_previous) {
            LayoutDiff diff = buildLayoutDiff(
                program, store.config().cache, previous,
                result.layout, "stored (" + prev_algorithm + ")",
                "recomputed (" + result.algorithm + ")");
            crossReferenceDecisions(
                diff, program, snapshotDecisions(decisions, program));
            publishDiffMetrics(diff);
            doc.set("diff", diffToJson(diff, program));
            std::cerr << "re-placement moved " << diff.moves.size()
                      << " of "
                      << diff.moves.size() + diff.unmoved
                      << " procedure(s); " << diff.moves_explained
                      << " move(s) explained by decision records\n";
        }
    }
    writeJsonIfRequested(opts, doc);
    return 0;
}

constexpr const char *kUsage =
    "topo_profile: crash-consistent persistent profile store.\n"
    "  topo_profile init    --store=DIR --program=FILE\n"
    "                       [--build-pairs] [--cache-kb=N]\n"
    "                       [--line-bytes=N] [--assoc=N]\n"
    "                       [--chunk-bytes=N] [--coverage=F]\n"
    "                       [--q-factor=F]\n"
    "  topo_profile ingest  --store=DIR --trace=FILE[,FILE...]\n"
    "                       | --synth=BENCH[,BENCH...]\n"
    "                       [--trace-scale=F (with --synth)]\n"
    "                       [--sample=simpoint [--sample-window=N]\n"
    "                        [--sample-k=N] [--sample-warmup=N]]\n"
    "                       [--label=NAME] [--recover]\n"
    "  topo_profile status  --store=DIR [--json-out=FILE]\n"
    "  topo_profile compact --store=DIR\n"
    "  topo_profile place   --store=DIR [--algorithm=NAME]\n"
    "                       [--replace-threshold=F] [--force]\n"
    "                       [--out-layout=FILE] [--json-out=FILE]\n"
    "Standard knobs: --fault-spec=KIND@P[:seed] --crash-at=SITE[:N]\n"
    "  --log-level=L --log-file=FILE --metrics-out=FILE --jobs=N\n";

} // namespace

int
main(int argc, char **argv)
{
    // Peel the subcommand (Options::parse rejects positional args).
    std::string command;
    if (argc >= 2 && argv[1][0] != '-')
        command = argv[1];
    std::vector<const char *> rest;
    rest.push_back(argv[0]);
    for (int i = command.empty() ? 1 : 2; i < argc; ++i)
        rest.push_back(argv[i]);

    topo::ToolSpec spec{
        "topo_profile", kUsage, {"store", "json-out"}, nullptr};
    if (command == "init") {
        spec.options.insert(spec.options.end(),
                            {"program", "build-pairs", "cache-kb",
                             "line-bytes", "assoc", "chunk-bytes",
                             "coverage", "q-factor"});
        spec.run = runInit;
    } else if (command == "ingest") {
        spec.options.insert(spec.options.end(),
                            {"trace", "label", "recover", "synth",
                             "trace-scale", "sample", "sample-window",
                             "sample-k", "sample-max-k",
                             "sample-warmup", "sample-seed",
                             "sample-verify", "sample-max-error"});
        spec.run = runIngest;
    } else if (command == "status") {
        spec.run = runStatus;
    } else if (command == "compact") {
        spec.run = runCompact;
    } else if (command == "place") {
        spec.options.insert(spec.options.end(),
                            {"algorithm", "replace-threshold", "force",
                             "out-layout"});
        spec.run = runPlace;
    } else {
        std::cerr << kUsage;
        if (!command.empty())
            std::cerr << "topo_profile: unknown command '" << command
                      << "'\n";
        return 1;
    }
    return topo::toolMain(static_cast<int>(rest.size()), rest.data(),
                          spec);
}
