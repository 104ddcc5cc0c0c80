/**
 * @file
 * Exercises the Section 6 extension: placement for a 2-way LRU
 * set-associative cache driven by the pair database D(p,{r,s}).
 *
 * For each benchmark we measure, on an 8KB 2-way cache: the default
 * layout, the direct-mapped GBSC layout (computed for the DM cache of
 * the same size, then run on the 2-way cache), and the GBSC-SA layout
 * that uses D. The section has no figure in the paper; the expected
 * shape is that both optimised layouts beat the default and GBSC-SA
 * is competitive with (or better than) the mis-targeted DM layout.
 */

#include <iostream>

#include "topo/eval/reports.hh"
#include "topo/placement/gbsc.hh"
#include "topo/placement/gbsc_setassoc.hh"
#include "topo/util/table.hh"

int
main(int argc, char **argv)
{
    using namespace topo;
    const Options opts = Options::parse(argc, argv);
    if (opts.helpRequested()) {
        std::cout << "section6_setassoc: 2-way set-associative "
                     "extension.\n  --benchmark=NAME --trace-scale=F "
                     "--pair-window=N\n";
        return 0;
    }
    // Shorter traces by default: the pair database is the expensive
    // part (documented cap in DESIGN.md).
    const double trace_scale =
        opts.getDouble("trace-scale", 0.3);
    const std::string only = opts.getString("benchmark", "");

    EvalOptions two_way = evalOptionsFrom(opts);
    two_way.cache.associativity = 2;
    two_way.cache.validate();
    two_way.build_pairs = true;
    two_way.pair_window = static_cast<std::uint32_t>(
        opts.getInt("pair-window", 12));
    two_way.pair_prune = opts.getDouble("pair-prune", 2.0);

    EvalOptions direct = two_way;
    direct.cache.associativity = 1;
    direct.build_pairs = false;

    const DefaultPlacement def;
    const Gbsc gbsc;
    const GbscSetAssoc gbsc_sa;

    TextTable table({"benchmark", "default MR", "GBSC(DM) MR",
                     "GBSC-SA MR", "pairs in D"});
    for (const BenchmarkCase &bench : paperSuite(trace_scale)) {
        if (!only.empty() && bench.name != only)
            continue;
        std::cerr << "running " << bench.name << " ...\n";
        // DM-targeted placement (profiles built for the DM cache).
        const ProfileBundle dm_bundle(bench, direct);
        const Layout dm_layout = gbsc.place(dm_bundle.makeContext());
        // 2-way-targeted placement with the pair database.
        const ProfileBundle sa_bundle(bench, two_way);
        const PlacementContext sa_ctx = sa_bundle.makeContext();
        const Layout sa_layout = gbsc_sa.place(sa_ctx);
        const Layout def_layout = def.place(sa_ctx);
        table.addRow({bench.name,
                      fmtPercent(sa_bundle.testMissRate(def_layout)),
                      fmtPercent(sa_bundle.testMissRate(dm_layout)),
                      fmtPercent(sa_bundle.testMissRate(sa_layout)),
                      std::to_string(sa_bundle.profile().pairs.size())});
    }
    table.render(std::cout,
                 "Section 6: placement for " +
                     two_way.cache.describe());
    std::cout << "\nD built with pair window "
              << two_way.pair_window << ", pruned below "
              << two_way.pair_prune << ".\n";
    return 0;
}
