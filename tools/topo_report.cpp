/**
 * @file
 * topo_report: self-contained "why did this layout win" reports.
 *
 * Three ways to name the workload:
 *
 *   topo_report --benchmark=NAME [--algorithms=default,ph,hkc,gbsc]
 *       full in-process pipeline on a paper-suite benchmark; one
 *       candidate layout per algorithm.
 *
 *   topo_report --microsuite[=CASE] [--algorithms=...]
 *       same head-to-head on the adversarial micro workloads (all
 *       cases, or one named case).
 *
 *   topo_report --program=F --trace=F --layouts=a.layout,b.layout
 *       compare explicit layout files over a recorded trace.
 *
 * Output is Markdown on stdout (or --out=FILE); --json-out=FILE writes
 * the same data as JSON parsable by the in-tree JsonValue parser. The
 * first candidate is the baseline for timeline deltas.
 *
 * Utility mode: --check-json=FILE parses FILE with the in-tree JSON
 * parser, recognises the document type (report, report suite, bench,
 * or metrics snapshot), rejects unknown keys, and enforces the
 * taxonomy invariants (3C sums equal miss counts; reuse histograms
 * sum to access counts) — exit 0 (valid) or 2 (malformed). Used by
 * check.sh to validate report/bench artefacts without python.
 */

#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>

#include "topo/eval/experiment.hh"
#include "topo/eval/layout_diff.hh"
#include "topo/exec/exec.hh"
#include "topo/obs/metrics.hh"
#include "topo/eval/report_gen.hh"
#include "topo/eval/reports.hh"
#include "topo/obs/obs.hh"
#include "topo/placement/placement_table.hh"
#include "topo/program/layout_io.hh"
#include "topo/program/program_io.hh"
#include "topo/resilience/resilience.hh"
#include "topo/trace/trace_binary.hh"
#include "topo/util/error.hh"
#include "topo/util/string_utils.hh"
#include "topo/workload/microsuite.hh"
#include "topo/workload/paper_suite.hh"

namespace
{

using namespace topo;

std::vector<std::string>
algorithmListFrom(const Options &opts)
{
    const std::string raw =
        opts.getString("algorithms", "default,ph,gbsc");
    std::vector<std::string> names = split(raw, ',');
    require(!names.empty(), "topo_report: --algorithms is empty");
    for (const std::string &name : names)
        placementEntry(name); // validate early
    return names;
}

ReportOptions
reportOptionsFrom(const Options &opts)
{
    ReportOptions ropts;
    ropts.top_pairs = static_cast<std::size_t>(
        opts.getInt("top-pairs", static_cast<std::int64_t>(
                                     ropts.top_pairs)));
    ropts.hot_sets = static_cast<std::size_t>(
        opts.getInt("hot-sets",
                    static_cast<std::int64_t>(ropts.hot_sets)));
    ropts.timeline_window = static_cast<std::uint64_t>(
        opts.getInt("timeline-window", 0));
    return ropts;
}

/** Place every requested algorithm over one context. */
std::vector<LayoutCandidate>
placeCandidates(const std::vector<std::string> &algorithms,
                const Program &program, std::uint32_t line_bytes,
                const PlacementContext &ctx)
{
    std::vector<LayoutCandidate> candidates;
    for (const std::string &name : algorithms) {
        const PlacementEntry &entry = placementEntry(name);
        LayoutCandidate cand{entry.display, entry.algorithm.place(ctx)};
        cand.layout.validate(program, line_bytes);
        candidates.push_back(std::move(cand));
    }
    return candidates;
}

/** Emit one finished report to stdout/--out/--json-out. */
struct ReportWriter
{
    std::string out_path;
    std::string json_path;
    std::ostringstream markdown;
    JsonValue json_reports = JsonValue::array();

    void
    add(const ComparisonReport &report)
    {
        renderReportMarkdown(report, markdown);
        markdown << '\n';
        json_reports.push(reportToJson(report));
    }

    int
    finish()
    {
        if (out_path.empty()) {
            std::cout << markdown.str();
        } else {
            std::ofstream os(out_path);
            if (!os.good())
                fail("topo_report: cannot open --out file '" + out_path + "'");
            os << markdown.str();
            logInfo("report", "markdown written",
                    {{"file", out_path}});
        }
        if (!json_path.empty()) {
            JsonValue root = JsonValue::object();
            root.set("topo_report_suite", JsonValue::number(1));
            root.set("reports", std::move(json_reports));
            std::ofstream os(json_path);
            if (!os.good())
                fail("topo_report: cannot open --json-out file '" + json_path +
                         "'");
            os << root.toString() << '\n';
            logInfo("report", "json written", {{"file", json_path}});
        }
        return 0;
    }
};

ReportWriter
writerFrom(const Options &opts)
{
    ReportWriter writer;
    writer.out_path = opts.getString("out", "");
    writer.json_path = opts.getString("json-out", "");
    return writer;
}

int
runBenchmarkReport(const Options &opts)
{
    const std::string name = opts.getString("benchmark", "");
    const BenchmarkCase bench =
        paperBenchmark(name, traceScaleFrom(opts));
    const EvalOptions eval = evalOptionsFrom(opts);
    const ProfileBundle bundle(bench, eval);
    const std::vector<std::string> algorithms = algorithmListFrom(opts);

    const PlacementContext ctx = bundle.makeContext();
    const std::vector<LayoutCandidate> candidates = placeCandidates(
        algorithms, bundle.program(), eval.cache.line_bytes, ctx);
    ComparisonReport report = buildComparisonReport(
        bundle.program(), bundle.testStream(), eval.cache, candidates,
        reportOptionsFrom(opts));
    report.title = "Benchmark " + bundle.name();

    ReportWriter writer = writerFrom(opts);
    writer.add(report);
    return writer.finish();
}

/** Profile, place and report one microsuite case on its own trace. */
ComparisonReport
microCaseReport(const MicroCase &mc,
                const std::vector<std::string> &algorithms,
                const ReportOptions &ropts)
{
    const TrainingProfile profile =
        buildProfile(mc.program, mc.trace, EvalOptions{.cache = mc.cache});
    const PlacementContext ctx = profile.context();
    const std::vector<LayoutCandidate> candidates = placeCandidates(
        algorithms, mc.program, mc.cache.line_bytes, ctx);
    const FetchStream stream(mc.program, mc.trace,
                             mc.cache.line_bytes);
    ComparisonReport report = buildComparisonReport(
        mc.program, stream, mc.cache, candidates, ropts);
    report.title = "Microsuite case " + mc.name + " — " + mc.lesson;
    return report;
}

int
runMicrosuiteReport(const Options &opts)
{
    const std::string which = opts.getString("microsuite", "");
    const std::vector<std::string> algorithms = algorithmListFrom(opts);
    const ReportOptions ropts = reportOptionsFrom(opts);

    std::vector<MicroCase> cases;
    if (which.empty() || which == "1" || which == "all")
        cases = microsuite();
    else
        cases.push_back(microCase(which));

    // Each case carries its own lesson-specific geometry; --assoc
    // overrides the associativity across the suite so the same
    // workloads can be compared on both cache organisations.
    if (opts.has("assoc")) {
        const std::int64_t assoc = opts.getInt("assoc", 1);
        require(assoc > 0, "topo_report: --assoc must be positive");
        for (MicroCase &mc : cases) {
            mc.cache.associativity =
                static_cast<std::uint32_t>(assoc);
            mc.cache.validate();
        }
    }
    // --policy likewise overrides the replacement policy suite-wide,
    // so placement robustness can be compared across policies.
    if (opts.has("policy") || opts.has("policy-seed")) {
        const ReplacementPolicy policy = parseReplacementPolicy(
            opts.getString("policy", replacementPolicyName(
                                         ReplacementPolicy::kLru)));
        const std::uint64_t seed = static_cast<std::uint64_t>(
            opts.getInt("policy-seed",
                        static_cast<std::int64_t>(kDefaultPolicySeed)));
        for (MicroCase &mc : cases) {
            mc.cache.policy = policy;
            mc.cache.policy_seed = seed;
            mc.cache.validate();
        }
    }

    // Cases are independent pipelines; fan them out on the shared
    // pool. Per-case metrics registries merge in case order, so the
    // report and --metrics-out are byte-identical for every --jobs
    // value (DESIGN.md §9).
    struct CaseResult
    {
        ComparisonReport report;
        std::unique_ptr<MetricsRegistry> metrics;
    };
    std::vector<CaseResult> results =
        parallelMap(cases.size(), [&](std::size_t i) {
            CaseResult out;
            out.metrics = std::make_unique<MetricsRegistry>();
            MetricsScope scope(*out.metrics);
            out.report = microCaseReport(cases[i], algorithms, ropts);
            return out;
        });
    ReportWriter writer = writerFrom(opts);
    for (CaseResult &result : results) {
        MetricsRegistry::current().mergeFrom(*result.metrics);
        writer.add(result.report);
    }
    return writer.finish();
}

int
runFileReport(const Options &opts)
{
    const std::string program_path = opts.getString("program", "");
    const std::string trace_path = opts.getString("trace", "");
    const std::string layouts_raw = opts.getString("layouts", "");
    require(!program_path.empty() && !trace_path.empty() &&
                !layouts_raw.empty(),
            "topo_report: file mode needs --program, --trace, and "
            "--layouts=a.layout,b.layout");
    const Program program = loadProgram(program_path);
    Trace trace = loadAnyTrace(trace_path, TraceReadOptions{});
    trace.validate(program);
    const EvalOptions eval = evalOptionsFrom(opts);

    std::vector<LayoutCandidate> candidates;
    for (const std::string &path : split(layouts_raw, ',')) {
        LayoutCandidate cand{path, loadLayout(path, program)};
        cand.layout.validate(program, eval.cache.line_bytes);
        candidates.push_back(std::move(cand));
    }
    const FetchStream stream(program, trace, eval.cache.line_bytes);
    ComparisonReport report =
        buildComparisonReport(program, stream, eval.cache, candidates,
                              reportOptionsFrom(opts));
    report.title = "Trace " + trace_path;

    ReportWriter writer = writerFrom(opts);
    writer.add(report);
    return writer.finish();
}

/**
 * Diff two layout files: structural moves, and (when --trace is
 * given) the exact per-procedure miss-delta attribution from a double
 * replay. --decisions=FILE cross-references moved procedures against
 * a decision-provenance log written by topo_place --decisions-out.
 */
int
runDiffReport(const Options &opts)
{
    const std::string program_path = opts.getString("program", "");
    const std::string diff_raw = opts.getString("diff", "");
    require(!program_path.empty(),
            "topo_report: --diff needs --program");
    const std::vector<std::string> paths = split(diff_raw, ',');
    require(paths.size() == 2,
            "topo_report: --diff=A.layout,B.layout takes exactly two "
            "files");
    const Program program = loadProgram(program_path);
    const EvalOptions eval = evalOptionsFrom(opts);

    LayoutProvenance prov_a, prov_b;
    const Layout layout_a = loadLayout(paths[0], program, &prov_a);
    const Layout layout_b = loadLayout(paths[1], program, &prov_b);
    auto label = [](const std::string &path,
                    const LayoutProvenance &prov) {
        return prov.empty() ? path : path + " (" + prov.describe() + ")";
    };

    LayoutDiffOptions dopts;
    dopts.top_moves = static_cast<std::size_t>(
        opts.getInt("top-moves",
                    static_cast<std::int64_t>(dopts.top_moves)));
    dopts.top_pairs = static_cast<std::size_t>(
        opts.getInt("top-pairs",
                    static_cast<std::int64_t>(dopts.top_pairs)));
    LayoutDiff diff = buildLayoutDiff(program, eval.cache, layout_a,
                                      layout_b, label(paths[0], prov_a),
                                      label(paths[1], prov_b), dopts);

    const std::string trace_path = opts.getString("trace", "");
    if (!trace_path.empty()) {
        Trace trace = loadAnyTrace(trace_path, TraceReadOptions{});
        trace.validate(program);
        const FetchStream stream(program, trace, eval.cache.line_bytes);
        attributeMissDelta(diff, program, layout_a, layout_b, stream,
                           dopts);
    }
    const std::string decisions_path = opts.getString("decisions", "");
    if (!decisions_path.empty()) {
        const LoadedDecisions decisions =
            readDecisionFile(decisions_path);
        crossReferenceDecisions(diff, program, decisions);
    }
    publishDiffMetrics(diff);

    const std::string out_path = opts.getString("out", "");
    const std::string markdown =
        renderDiffMarkdown(diff, program, dopts);
    if (out_path.empty()) {
        std::cout << markdown;
    } else {
        std::ofstream os(out_path);
        if (!os.good())
            fail("topo_report: cannot open --out file '" + out_path + "'");
        os << markdown;
        logInfo("report", "diff markdown written",
                {{"file", out_path}});
    }
    const std::string json_path = opts.getString("json-out", "");
    if (!json_path.empty()) {
        std::ofstream os(json_path);
        if (!os.good())
            fail("topo_report: cannot open --json-out file '" + json_path +
                     "'");
        os << diffToJson(diff, program).toString() << '\n';
        logInfo("report", "diff json written", {{"file", json_path}});
    }
    return 0;
}

/**
 * Parse FILE with the in-tree JSON parser and validate it as a known
 * artifact (schema + taxonomy invariants); exit 0 valid, 2 corrupt.
 */
int
runCheckJson(const Options &opts)
{
    const std::string path = opts.getString("check-json", "");
    std::ifstream is(path, std::ios::binary);
    requireData(is.good(), "cannot open file", path);
    std::ostringstream buf;
    buf << is.rdbuf();
    std::string doc_type;
    try {
        const JsonValue doc = JsonValue::parse(buf.str());
        doc_type = validateArtifactJson(doc);
    } catch (const TopoError &err) {
        failCorrupt(err.what(), path);
    }
    std::cout << "valid " << doc_type << ": " << path << "\n";
    return 0;
}

int
run(const Options &opts)
{
    if (!opts.getString("check-json", "").empty())
        return runCheckJson(opts);
    if (!opts.getString("diff", "").empty())
        return runDiffReport(opts);
    if (!opts.getString("benchmark", "").empty())
        return runBenchmarkReport(opts);
    if (opts.has("microsuite"))
        return runMicrosuiteReport(opts);
    return runFileReport(opts);
}

} // namespace

int
main(int argc, char **argv)
{
    const ToolSpec spec{
        "topo_report",
        "topo_report: attribution/timeline comparison reports.\n"
        "  --benchmark=NAME (paper-suite pipeline) or\n"
        "  --microsuite[=CASE] (adversarial micro workloads) or\n"
        "  --program=FILE --trace=FILE --layouts=a.layout,b.layout\n"
        "  --diff=A.layout,B.layout --program=FILE [--trace=FILE]\n"
        "      [--decisions=FILE] [--top-moves=N] (layout diff with\n"
        "      exact miss-delta attribution + decision provenance)\n"
        "  --algorithms=default,ph,hkc,gbsc (pipeline modes)\n"
        "  --out=FILE (Markdown; default stdout) --json-out=FILE\n"
        "  --top-pairs=N --hot-sets=N --timeline-window=BLOCKS\n"
        "  --cache-kb=N --line-bytes=N --assoc=N --trace-scale=S\n"
        "  --policy=lru|plru|srrip|fifo|random [--policy-seed=N]\n"
        "      (set-associative replacement policy; with --microsuite\n"
        "      it overrides every case's geometry)\n"
        "  --jobs=N (parallel cases/candidates; output is\n"
        "      bit-identical for every N)\n"
        "  --check-json=FILE (validate a JSON artefact; exit 0/2)\n"
        "  --log-level=L --log-file=FILE --metrics-out=FILE\n"
        "  --trace-out=FILE (Chrome trace events for Perfetto)\n",
        {"benchmark", "microsuite", "program", "trace", "layouts",
         "diff", "decisions", "top-moves", "algorithms", "out",
         "json-out", "top-pairs", "hot-sets", "timeline-window",
         "trace-scale", "cache-kb", "line-bytes", "assoc",
         "policy", "policy-seed",
         "chunk-bytes", "coverage", "q-factor", "check-json"},
        run,
    };
    return topo::toolMain(argc, argv, spec);
}
