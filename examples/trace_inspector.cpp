/**
 * @file
 * Trace inspector: profile-side diagnostics for a benchmark's
 * training trace — reference histogram, popular-set composition,
 * TRG/WCG edge statistics, and Q occupancy — the numbers a user would
 * check before trusting a placement.
 *
 * Usage: trace_inspector [--benchmark=perl] [--trace-scale=0.3]
 */

#include <algorithm>
#include <iostream>

#include "topo/eval/reports.hh"
#include "topo/util/table.hh"

int
main(int argc, char **argv)
{
    using namespace topo;
    const Options opts = Options::parse(argc, argv);
    if (opts.helpRequested()) {
        std::cout << "trace_inspector --benchmark=NAME "
                     "--trace-scale=F\n";
        return 0;
    }
    const std::string name = opts.getString("benchmark", "perl");
    const double scale = opts.getDouble("trace-scale", 0.3);
    const EvalOptions eval = evalOptionsFrom(opts);

    std::cerr << "profiling " << name << " ...\n";
    const BenchmarkCase bench = paperBenchmark(name, scale);
    const ProfileBundle bundle(bench, eval);
    const TrainingProfile &profile = bundle.profile();
    const TraceStats &stats = profile.stats;

    std::cout << "Benchmark " << name << ": "
              << bundle.program().procCount() << " procedures, "
              << fmtBytes(bundle.program().totalSize())
              << " of text.\n";
    std::cout << "Training input '" << bench.train.name << "': "
              << fmtCount(stats.total_runs) << " runs, "
              << fmtCount(stats.total_bytes) << " bytes fetched, "
              << stats.procs_touched << " procedures touched.\n";
    std::cout << "Popular set: " << profile.popular.count
              << " procedures, " << fmtBytes(profile.popular.bytes)
              << " (" << fmtPercent(profile.popular.covered)
              << " of dynamic bytes).\n";
    std::cout << "Average procedures resident in Q: "
              << fmtDouble(profile.avgQueueProcs(), 1) << " (Q budget "
              << eval.q_budget_factor << "x " << eval.cache.size_bytes
              << " B).\n\n";

    // Hottest procedures.
    std::vector<ProcId> order(bundle.program().procCount());
    for (ProcId i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(), [&](ProcId a, ProcId b) {
        return stats.bytes_fetched[a] > stats.bytes_fetched[b];
    });
    TextTable hot({"procedure", "size", "bytes fetched",
                   "share of trace"});
    for (int i = 0; i < 10; ++i) {
        const ProcId p = order[i];
        hot.addRow({bundle.program().proc(p).name,
                    fmtBytes(bundle.program().proc(p).size_bytes),
                    fmtCount(stats.bytes_fetched[p]),
                    fmtPercent(static_cast<double>(
                                   stats.bytes_fetched[p]) /
                               static_cast<double>(stats.total_bytes))});
    }
    hot.render(std::cout, "Hottest procedures");

    // Graph statistics: the TRG's extra information over the WCG.
    std::size_t wcg_popular_edges = 0;
    for (const auto &e : bundle.wcg().edges()) {
        if (profile.popular.mask[e.u] && profile.popular.mask[e.v])
            ++wcg_popular_edges;
    }
    TextTable graphs({"graph", "nodes", "edges", "total weight"});
    graphs.addRow({"WCG (popular-popular edges)",
                   std::to_string(profile.popular.count),
                   std::to_string(wcg_popular_edges), "-"});
    graphs.addRow({"TRG_select",
                   std::to_string(profile.popular.count),
                   std::to_string(bundle.trgSelect().edgeCount()),
                   fmtCount(static_cast<std::uint64_t>(
                       bundle.trgSelect().totalWeight()))});
    graphs.addRow({"TRG_place (chunks)",
                   std::to_string(profile.chunks.chunkCount()),
                   std::to_string(bundle.trgPlace().edgeCount()),
                   fmtCount(static_cast<std::uint64_t>(
                       bundle.trgPlace().totalWeight()))});
    std::cout << '\n';
    graphs.render(std::cout, "Relationship graphs (training trace)");
    std::cout << "\nThe TRG's additional edges are exactly the "
                 "sibling/distant interleavings the WCG cannot see "
                 "(Section 3).\n";
    return 0;
}
