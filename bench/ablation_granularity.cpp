/**
 * @file
 * Ablation: placement granularity (Section 1's "code blocks of any
 * granularity"). Compares GBSC placing whole procedures against GBSC
 * placing *exploded* chunk-procedures — an upper bound on what any
 * whole-procedure placement could achieve, since every chunk's cache
 * line is chosen independently. The gap between the rows is the price
 * of the whole-procedure constraint.
 */

#include <iostream>

#include "topo/eval/reports.hh"
#include "topo/placement/gbsc.hh"
#include "topo/placement/splitting.hh"
#include "topo/util/table.hh"
#include "topo/workload/trace_synthesizer.hh"

namespace
{

using namespace topo;

double
gbscMissRate(const Program &program, const Trace &train,
             const Trace &test, const EvalOptions &eval)
{
    const Layout layout =
        Gbsc().place(buildProfile(program, train, eval).context());
    const FetchStream stream(program, test, eval.cache.line_bytes);
    return layoutMissRate(program, layout, stream, eval.cache);
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace topo;
    const Options opts = Options::parse(argc, argv);
    if (opts.helpRequested()) {
        std::cout << "ablation_granularity: whole procedures vs free "
                     "chunks.\n  --benchmark=NAME --trace-scale=F\n";
        return 0;
    }
    const EvalOptions eval = evalOptionsFrom(opts);
    const double scale = opts.getDouble("trace-scale", 0.25);
    const std::string only = opts.getString("benchmark", "");

    TextTable table({"benchmark", "whole procedures", "free chunks",
                     "constraint cost"});
    for (const BenchmarkCase &bench : paperSuite(scale)) {
        if (!only.empty() && bench.name != only)
            continue;
        std::cerr << "running " << bench.name << " ...\n";
        const Trace train = synthesizeTrace(bench.model, bench.train);
        const Trace test = synthesizeTrace(bench.model, bench.test);
        const double whole =
            gbscMissRate(bench.model.program, train, test, eval);

        const SplitProgram exploded =
            explodeProcedures(bench.model.program, eval.chunk_bytes);
        const double chunks = gbscMissRate(
            exploded.program(), exploded.transform(train),
            exploded.transform(test), eval);
        const std::string cost =
            chunks > 0.0 ? fmtDouble(whole / chunks, 2) + "x"
                         : std::string("-");
        table.addRow({bench.name, fmtPercent(whole),
                      fmtPercent(chunks), cost});
    }
    table.render(std::cout,
                 "Ablation: placement granularity (" +
                     eval.cache.describe() + ", chunks of " +
                     std::to_string(eval.chunk_bytes) + " B)");
    std::cout << "\nFree chunk placement enlarges the search space the "
                 "way basic-block-level layout does — but the same "
                 "greedy heuristic does not automatically exploit it "
                 "(expect ratios near 1.0x both ways). This supports "
                 "the paper's choice of whole-procedure placement plus "
                 "chunk-level *information*: the finer the blocks, the "
                 "more the greedy order, not the granularity, limits "
                 "quality.\n";
    return 0;
}
