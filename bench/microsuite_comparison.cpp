/**
 * @file
 * Microsuite comparison: every algorithm on every adversarial micro
 * workload, with the case's lesson printed alongside. The known-best
 * structure of each case makes this the most readable head-to-head of
 * the repository.
 */

#include <iostream>

#include "topo/cache/attribution.hh"
#include "topo/cache/simulate.hh"
#include "topo/eval/experiment.hh"
#include "topo/placement/placement_table.hh"
#include "topo/util/table.hh"
#include "topo/workload/microsuite.hh"

int
main()
{
    using namespace topo;
    std::vector<std::string> header{"case", "cache"};
    for (const PlacementEntry &entry : kPlacementTable)
        header.push_back(entry.display);
    header.push_back("default's worst conflict");
    TextTable table(header);
    std::vector<std::pair<std::string, std::string>> lessons;
    for (const MicroCase &mc : microsuite()) {
        const TrainingProfile profile = buildProfile(
            mc.program, mc.trace, EvalOptions{.cache = mc.cache});
        const PlacementContext ctx = profile.context();

        const FetchStream stream(mc.program, mc.trace,
                                 mc.cache.line_bytes);
        // Attribute the default layout's misses so each row also names
        // the procedure pair that thrashes before placement fixes it.
        const Layout base = DefaultPlacement().place(ctx);
        AttributionSink sink(mc.program, base, mc.cache,
                             mc.cache.line_bytes);
        SimObservers observers;
        observers.attribution = &sink;
        simulateLayout(mc.program, base, stream, mc.cache, false,
                       nullptr, &observers);
        const std::vector<ConflictPair> top = sink.topPairs(1);
        const std::string conflict =
            top.empty() ? "-"
                        : mc.program.proc(top[0].evictor).name +
                              " evicts " +
                              mc.program.proc(top[0].victim).name +
                              " x" + std::to_string(top[0].count);
        std::vector<std::string> row{mc.name, mc.cache.describe()};
        for (const PlacementEntry &entry : kPlacementTable) {
            row.push_back(fmtPercent(layoutMissRate(
                mc.program, entry.algorithm.place(ctx), stream, mc.cache)));
        }
        row.push_back(conflict);
        table.addRow(row);
        lessons.emplace_back(mc.name, mc.lesson);
    }
    table.render(std::cout,
                 "Microsuite: adversarial cases with known structure");
    std::cout << '\n';
    for (const auto &[name, lesson] : lessons)
        std::cout << "  " << name << ": " << lesson << "\n";
    return 0;
}
