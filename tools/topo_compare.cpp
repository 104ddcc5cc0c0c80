/**
 * @file
 * topo_compare: run every placement algorithm on a program + trace
 * pair and print a comparison table — the quickest way to see what
 * placement is worth for a given application.
 *
 *   topo_compare --program=app.prog --trace=app.trace \
 *                [--test-trace=other.trace] [--cache-kb=8 ...]
 *
 * With --test-trace the layouts are trained on --trace and measured
 * on the second trace (the paper's train/test methodology).
 */

#include <iostream>

#include "topo/cache/simulate.hh"
#include "topo/eval/experiment.hh"
#include "topo/eval/page_metric.hh"
#include "topo/eval/reports.hh"
#include "topo/obs/obs.hh"
#include "topo/placement/placement_table.hh"
#include "topo/placement/refine.hh"
#include "topo/program/program_io.hh"
#include "topo/resilience/resilience.hh"
#include "topo/trace/trace_binary.hh"
#include "topo/util/error.hh"
#include "topo/util/table.hh"

namespace
{

using namespace topo;

int
run(const Options &opts)
{
    const std::string program_path = opts.getString("program", "");
    const std::string trace_path = opts.getString("trace", "");
    require(!program_path.empty() && !trace_path.empty(),
            "topo_compare: --program and --trace are required");
    const Program program = loadProgram(program_path);
    TraceReadOptions ropts;
    ropts.recover = opts.getBool("recover", false);
    Trace train = loadAnyTrace(trace_path, ropts);
    train.validate(program);
    const std::string test_path = opts.getString("test-trace", "");
    Trace test = test_path.empty() ? Trace(program.procCount())
                                   : loadAnyTrace(test_path, ropts);
    const bool has_test = !test_path.empty();
    if (has_test)
        test.validate(program);
    const EvalOptions eval = evalOptionsFrom(opts);

    const TrainingProfile profile = buildProfile(program, train, eval);
    const PlacementContext ctx = profile.context();

    const FetchStream train_stream(program, train,
                                   eval.cache.line_bytes);
    const FetchStream test_stream(program, test, eval.cache.line_bytes);

    std::cerr << program.procCount() << " procedures, "
              << profile.popular.count << " popular; cache "
              << eval.cache.describe() << "\n";

    TextTable table({"algorithm", has_test ? "train MR" : "MR",
                     has_test ? "test MR" : "-", "pages", "extent"});
    auto report = [&](const std::string &name, const Layout &layout) {
        layout.validate(program, eval.cache.line_bytes);
        const double train_mr =
            layoutMissRate(program, layout, train_stream, eval.cache);
        const std::string test_mr =
            has_test ? fmtPercent(layoutMissRate(
                           program, layout, test_stream, eval.cache))
                     : std::string("-");
        const PageStats pages = measurePageStats(
            program, layout, has_test ? test_stream : train_stream);
        table.addRow({name, fmtPercent(train_mr), test_mr,
                      std::to_string(pages.pages_touched),
                      fmtBytes(layout.extent(program))});
    };

    for (const PlacementEntry &entry : kPlacementTable) {
        const Layout layout = entry.algorithm.place(ctx);
        report(entry.display, layout);
        if (entry.name == std::string("gbsc") &&
            opts.getBool("refine", false))
            report("GBSC+refine", refineLayout(ctx, layout).layout);
    }
    table.render(std::cout, "Placement comparison for '" +
                                program.name() + "'");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const topo::ToolSpec spec{
        "topo_compare",
        "topo_compare: all placement algorithms side by side.\n"
        "  --program=FILE --trace=FILE [--test-trace=FILE]\n"
        "  [--refine] [--recover] --cache-kb=N --line-bytes=N\n"
        "  --assoc=N --chunk-bytes=N --coverage=F --q-factor=F\n"
        "  --fault-spec=KIND@P[:seed]\n"
        "  --log-level=L --log-file=FILE --metrics-out=FILE\n",
        {"program", "trace", "test-trace", "refine", "recover",
         "cache-kb", "line-bytes", "assoc", "policy", "policy-seed",
         "chunk-bytes", "coverage",
         "q-factor"},
        run,
    };
    return topo::toolMain(argc, argv, spec);
}
