/**
 * @file
 * Section 4.3 extension: page-locality consequences of placement.
 *
 * The paper notes the final linear list could also be chosen with
 * paging in mind. This bench measures, for each algorithm's layout:
 * the dynamic page working set, page switches per kilo-access, and
 * LRU page faults — showing the trade-off surface a paging-aware
 * emitter would optimise.
 */

#include <iostream>

#include "topo/eval/page_metric.hh"
#include "topo/eval/reports.hh"
#include "topo/placement/placement_table.hh"
#include "topo/util/table.hh"

int
main(int argc, char **argv)
{
    using namespace topo;
    const Options opts = Options::parse(argc, argv);
    if (opts.helpRequested()) {
        std::cout << "extension_paging: page locality per layout.\n"
                     "  --benchmark=NAME --trace-scale=F --page-kb=N "
                     "--resident-pages=N\n";
        return 0;
    }
    const EvalOptions eval = evalOptionsFrom(opts);
    const double scale = opts.getDouble("trace-scale", 0.3);
    const std::string only = opts.getString("benchmark", "");
    const std::uint32_t page_bytes = static_cast<std::uint32_t>(
        opts.getInt("page-kb", 4) * 1024);
    const std::uint32_t resident = static_cast<std::uint32_t>(
        opts.getInt("resident-pages", 16));

    TextTable table({"benchmark", "algorithm", "miss rate",
                     "pages touched", "switches/kacc", "LRU faults"});
    for (const BenchmarkCase &bench : paperSuite(scale)) {
        if (!only.empty() && bench.name != only)
            continue;
        std::cerr << "running " << bench.name << " ...\n";
        const ProfileBundle bundle(bench, eval);
        const PlacementContext ctx = bundle.makeContext();
        for (const PlacementEntry &entry : kPlacementTable) {
            const Layout layout = entry.algorithm.place(ctx);
            const PageStats pages =
                measurePageStats(bundle.program(), layout,
                                 bundle.testStream(), page_bytes,
                                 resident);
            table.addRow(
                {bench.name, entry.display,
                 fmtPercent(bundle.testMissRate(layout)),
                 std::to_string(pages.pages_touched),
                 fmtDouble(pages.switchesPerKiloAccess(), 2),
                 std::to_string(pages.lru_faults)});
        }
    }
    table.render(std::cout,
                 "Section 4.3 extension: page locality (page size " +
                     std::to_string(page_bytes / 1024) + "KB, " +
                     std::to_string(resident) + " resident pages)");
    std::cout << "\nCache-conscious layouts spread hot code across "
                 "cache-sized regions; the page working set is the "
                 "price the paper's Section 4.3 remark alludes to.\n";
    return 0;
}
