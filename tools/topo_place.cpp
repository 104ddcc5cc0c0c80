/**
 * @file
 * topo_place: the command-line placement driver.
 *
 * Reads a program description and a profiling trace, runs a placement
 * algorithm, and writes the resulting layout (and optionally a linker
 * script / placement map). With --evaluate it also simulates the
 * instruction cache before and after.
 *
 *   topo_place --program=app.prog --trace=app.trace \
 *              --algorithm=gbsc --out-layout=app.layout \
 *              --out-script=app.ld --evaluate
 */

#include <fstream>
#include <iostream>

#include "topo/cache/simulate.hh"
#include "topo/eval/experiment.hh"
#include "topo/eval/reports.hh"
#include "topo/obs/obs.hh"
#include "topo/obs/provenance.hh"
#include "topo/placement/decision_log.hh"
#include "topo/placement/placement_table.hh"
#include "topo/program/layout_io.hh"
#include "topo/program/layout_script.hh"
#include "topo/program/program_io.hh"
#include "topo/resilience/resilience.hh"
#include "topo/trace/trace_binary.hh"
#include "topo/util/error.hh"

namespace
{

using namespace topo;

int
run(const Options &opts)
{
    const std::string program_path = opts.getString("program", "");
    const std::string trace_path = opts.getString("trace", "");
    require(!program_path.empty() && !trace_path.empty(),
            "topo_place: --program and --trace are required");

    const std::string algorithm = opts.getString("algorithm", "gbsc");
    const PlacementAlgorithm &algo = placementEntry(algorithm).algorithm;

    const Program program = loadProgram(program_path);
    TraceReadOptions ropts;
    ropts.recover = opts.getBool("recover", false);
    Trace trace = loadAnyTrace(trace_path, ropts);
    require(trace.procCount() == program.procCount(),
            "topo_place: trace and program disagree on the procedure "
            "count");
    trace.validate(program);
    const EvalOptions eval = evalOptionsFrom(opts);
    const TrainingProfile profile = buildProfile(program, trace, eval);
    PlacementContext ctx = profile.context();

    std::cerr << "placing " << program.procCount() << " procedures ("
              << profile.popular.count << " popular) with " << algo.name()
              << " for " << eval.cache.describe() << "\n";
    const std::string decisions_out =
        opts.getString("decisions-out", "");
    DecisionLog decisions;
    if (!decisions_out.empty()) {
        decisions.setAlgorithm(algorithm);
        decisions.setCache(eval.cache);
        ctx.decisions = &decisions;
    }
    const Layout layout = algo.place(ctx);
    ctx.decisions = nullptr;
    layout.validate(program, eval.cache.line_bytes);
    if (!decisions_out.empty()) {
        std::ofstream os(decisions_out);
        if (!os.good())
            fail("topo_place: cannot open '" + decisions_out + "'");
        decisions.toJson(program).write(os);
        os << "\n";
        if (!os.good())
            fail("topo_place: write failed for '" + decisions_out + "'");
        decisions.publishMetrics(program);
        std::cerr << "wrote " << decisions.kept() << " decision records"
                  << (decisions.dropped()
                          ? " (+" + std::to_string(decisions.dropped()) +
                                " dropped past the bound)"
                          : std::string())
                  << " to " << decisions_out << "\n";
    }

    LayoutProvenance provenance;
    provenance.algorithm = algorithm;
    provenance.cache = eval.cache.describe();
    provenance.git_sha = buildGitSha();
    const std::string out_layout = opts.getString("out-layout", "");
    if (!out_layout.empty()) {
        saveLayout(out_layout, program, layout, provenance);
        std::cerr << "wrote layout to " << out_layout << "\n";
    }
    const std::string out_script = opts.getString("out-script", "");
    if (!out_script.empty()) {
        std::ofstream os(out_script);
        if (!os.good())
            fail("topo_place: cannot open '" + out_script + "'");
        writeLinkerScript(os, program, layout, eval.cache.line_bytes);
        std::cerr << "wrote linker script to " << out_script << "\n";
    }
    if (opts.getBool("print-map", false)) {
        writePlacementMap(std::cout, program, layout,
                          eval.cache.line_bytes, eval.cache.lineCount());
    }
    if (out_layout.empty() && out_script.empty() &&
        !opts.getBool("print-map", false)) {
        writeLayout(std::cout, program, layout);
    }

    if (opts.getBool("evaluate", false)) {
        const FetchStream stream(program, trace, eval.cache.line_bytes);
        const double before = layoutMissRate(
            program, DefaultPlacement().place(ctx), stream, eval.cache);
        const double after =
            layoutMissRate(program, layout, stream, eval.cache);
        std::cerr << "miss rate on this trace: default "
                  << before * 100.0 << "% -> " << algo.name() << " "
                  << after * 100.0 << "%\n";
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const topo::ToolSpec spec{
        "topo_place",
        "topo_place: profile-driven procedure placement.\n"
        "  --program=FILE     program description (topo-program v1)\n"
        "  --trace=FILE       profiling trace (topo-trace v1)\n"
        "  --algorithm=NAME   gbsc (default) | ph | hkc | default\n"
        "  --out-layout=FILE  write the layout (topo-layout v2)\n"
        "  --decisions-out=FILE  write decision provenance JSON\n"
        "  --out-script=FILE  write a GNU-ld script fragment\n"
        "  --print-map        print a human-readable placement map\n"
        "  --evaluate         simulate miss rates before/after\n"
        "  --recover          salvage a damaged trace and continue\n"
        "  --cache-kb=N --line-bytes=N --assoc=N --chunk-bytes=N\n"
        "  --coverage=F --q-factor=F\n"
        "  --fault-spec=KIND@P[:seed]\n"
        "  --log-level=L --log-file=FILE --metrics-out=FILE\n",
        {"program", "trace", "algorithm", "out-layout", "out-script",
         "decisions-out", "print-map", "evaluate", "recover",
         "cache-kb", "line-bytes", "assoc", "policy", "policy-seed",
         "chunk-bytes", "coverage",
         "q-factor"},
        run,
    };
    return topo::toolMain(argc, argv, spec);
}
