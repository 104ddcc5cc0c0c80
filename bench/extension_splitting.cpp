/**
 * @file
 * Section 8 extension: procedure splitting combined with GBSC.
 *
 * For each benchmark: GBSC on the original program vs GBSC on the
 * split program (hot/cold separation from the training trace, both
 * traces remapped). Reports the popular-footprint shrinkage and the
 * test-input miss rates.
 */

#include <iostream>

#include "topo/eval/page_metric.hh"
#include "topo/eval/reports.hh"
#include "topo/placement/gbsc.hh"
#include "topo/placement/splitting.hh"
#include "topo/util/table.hh"
#include "topo/workload/trace_synthesizer.hh"

namespace
{

using namespace topo;

struct SplitResult
{
    double test_mr = 0.0;
    double train_mr = 0.0;
    std::uint64_t popular_bytes = 0;
    std::uint64_t pages_touched = 0;
};

SplitResult
gbscMissRate(const Program &program, const Trace &train,
             const Trace &test, const EvalOptions &eval)
{
    const TrainingProfile profile = buildProfile(program, train, eval);
    const Layout layout = Gbsc().place(profile.context());
    SplitResult result;
    result.popular_bytes = profile.popular.bytes;
    const FetchStream test_stream(program, test, eval.cache.line_bytes);
    result.test_mr =
        layoutMissRate(program, layout, test_stream, eval.cache);
    const FetchStream train_stream(program, train,
                                   eval.cache.line_bytes);
    result.train_mr =
        layoutMissRate(program, layout, train_stream, eval.cache);
    result.pages_touched =
        measurePageStats(program, layout, test_stream).pages_touched;
    return result;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace topo;
    const Options opts = Options::parse(argc, argv);
    if (opts.helpRequested()) {
        std::cout << "extension_splitting: GBSC with/without procedure "
                     "splitting.\n  --benchmark=NAME --trace-scale=F\n";
        return 0;
    }
    const EvalOptions eval = evalOptionsFrom(opts);
    const double scale = opts.getDouble("trace-scale", 0.4);
    const std::string only = opts.getString("benchmark", "");

    TextTable table({"benchmark", "test MR", "test MR +split",
                     "train MR", "train MR +split", "popular bytes",
                     "popular +split", "pages", "pages +split"});
    for (const BenchmarkCase &bench : paperSuite(scale)) {
        if (!only.empty() && bench.name != only)
            continue;
        std::cerr << "running " << bench.name << " ...\n";
        const Trace train = synthesizeTrace(bench.model, bench.train);
        const Trace test = synthesizeTrace(bench.model, bench.test);

        const SplitResult plain =
            gbscMissRate(bench.model.program, train, test, eval);

        const SplitProgram split =
            splitProcedures(bench.model.program, train);
        const Trace train_split = split.transform(train);
        const Trace test_split = split.transform(test);
        const SplitResult with_split = gbscMissRate(
            split.program(), train_split, test_split, eval);

        table.addRow({bench.name, fmtPercent(plain.test_mr),
                      fmtPercent(with_split.test_mr),
                      fmtPercent(plain.train_mr),
                      fmtPercent(with_split.train_mr),
                      fmtBytes(plain.popular_bytes),
                      fmtBytes(with_split.popular_bytes),
                      std::to_string(plain.pages_touched),
                      std::to_string(with_split.pages_touched)});
    }
    table.render(std::cout,
                 "Section 8 extension: procedure splitting + GBSC (" +
                     eval.cache.describe() + ")");
    std::cout << "\nPaper: splitting is orthogonal to placement and "
                 "combinable for further improvement. In this "
                 "reproduction GBSC's chunk-granularity TRG already "
                 "treats dead regions inside procedures as free "
                 "spacing, so splitting's conflict-miss effect is "
                 "within greedy noise; its clear wins are the hot "
                 "footprint (popular bytes) and the dynamic page "
                 "working set — precisely the paging dimension of "
                 "Section 4.3. Chunks cold in training but warm in "
                 "testing can erode the gain under input drift.\n";
    return 0;
}
