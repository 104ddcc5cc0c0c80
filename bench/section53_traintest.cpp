/**
 * @file
 * Reproduces the Section 5.3 m88ksim observation: dcrand is a poor
 * training input for dhry, so cross-input results are inconclusive —
 * but with train == test (the dcrand/dcrand row) GBSC < HKC < PH
 * (paper: 0.13% / 0.19% / 0.23%).
 *
 * For every benchmark we print the miss rate measured on the testing
 * trace and on the training trace itself.
 */

#include <iostream>

#include "topo/eval/reports.hh"
#include "topo/placement/placement_table.hh"
#include "topo/util/table.hh"

int
main(int argc, char **argv)
{
    using namespace topo;
    const Options opts = Options::parse(argc, argv);
    if (opts.helpRequested()) {
        std::cout << "section53_traintest: train-vs-test measurement.\n"
                     "  --benchmark=NAME --trace-scale=F\n";
        return 0;
    }
    const EvalOptions eval = evalOptionsFrom(opts);
    const std::string only = opts.getString("benchmark", "");

    TextTable table({"benchmark", "algorithm", "MR on test input",
                     "MR on train input"});
    for (const BenchmarkCase &bench : paperSuite(traceScaleFrom(opts))) {
        if (!only.empty() && bench.name != only)
            continue;
        std::cerr << "running " << bench.name << " ...\n";
        const ProfileBundle bundle(bench, eval);
        const PlacementContext ctx = bundle.makeContext();
        for (const PlacementEntry &entry : kPlacementTable) {
            const Layout layout = entry.algorithm.place(ctx);
            table.addRow({bench.name, entry.display,
                          fmtPercent(bundle.testMissRate(layout)),
                          fmtPercent(bundle.trainMissRate(layout))});
        }
    }
    table.render(std::cout,
                 "Section 5.3: train/test vs train/train miss rates (" +
                     eval.cache.describe() + ")");
    std::cout << "\nPaper (m88ksim, train==test dcrand): GBSC 0.13%, "
                 "HKC 0.19%, PH 0.23% — ordering, not magnitude, is "
                 "the claim.\n";
    return 0;
}
