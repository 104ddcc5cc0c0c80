#include "topo/eval/reports.hh"

#include <algorithm>
#include <cmath>
#include <ostream>

#include "topo/placement/placement.hh"
#include "topo/util/error.hh"
#include "topo/util/stats.hh"
#include "topo/util/table.hh"

namespace topo
{

Table1Row
computeTable1Row(const BenchmarkCase &bench, const ProfileBundle &bundle)
{
    Table1Row row;
    row.name = bench.name;
    row.all_size = bundle.program().totalSize();
    row.all_count = bundle.program().procCount();
    row.popular_size = bundle.profile().popular.bytes;
    row.popular_count = bundle.profile().popular.count;
    row.train_input = bench.train.name;
    row.train_runs = bundle.trainTrace().size();
    row.test_input = bench.test.name;
    row.test_runs = bundle.testTrace().size();
    const DefaultPlacement default_placement;
    const PlacementContext ctx = bundle.makeContext();
    row.default_miss_rate =
        bundle.testMissRate(default_placement.place(ctx));
    row.avg_queue_size = bundle.profile().avgQueueProcs();
    return row;
}

void
printTable1(std::ostream &os, const std::vector<Table1Row> &rows)
{
    TextTable table({"Program", "All size", "All count", "Popular size",
                     "Popular count", "Train input", "Train len",
                     "Test input", "Test len", "Default MR", "Avg Q"});
    for (const Table1Row &row : rows) {
        table.addRow({row.name, fmtBytes(row.all_size),
                      std::to_string(row.all_count),
                      fmtBytes(row.popular_size),
                      std::to_string(row.popular_count), row.train_input,
                      fmtCount(row.train_runs), row.test_input,
                      fmtCount(row.test_runs),
                      fmtPercent(row.default_miss_rate),
                      fmtDouble(row.avg_queue_size, 1)});
    }
    table.render(os, "Table 1: benchmark details (synthetic models)");
}

void
printFigure5Panel(std::ostream &os, const std::string &benchmark,
                  double default_miss_rate,
                  const std::vector<AlgorithmResult> &results)
{
    os << "== " << benchmark << " ==\n";
    TextTable mr({"Algorithm", "MR (non-perturbed)", "MR min", "MR median",
                  "MR max"});
    for (const AlgorithmResult &res : results) {
        std::vector<double> sorted(res.perturbed);
        std::sort(sorted.begin(), sorted.end());
        const double lo = sorted.empty() ? res.unperturbed : sorted.front();
        const double hi = sorted.empty() ? res.unperturbed : sorted.back();
        const double med =
            sorted.empty() ? res.unperturbed : percentile(sorted, 50.0);
        mr.addRow({res.algorithm, fmtPercent(res.unperturbed),
                   fmtPercent(lo), fmtPercent(med), fmtPercent(hi)});
    }
    mr.addRow({"default", fmtPercent(default_miss_rate), "-", "-", "-"});
    mr.render(os);

    os << "# sorted series (x = miss rate, y = fraction of placements "
          "with an equal or smaller miss rate)\n";
    TextTable series({"Algorithm", "miss_rate", "fraction"});
    for (const AlgorithmResult &res : results) {
        for (const auto &[mr_value, frac] : empiricalCdf(res.perturbed)) {
            series.addRow({res.algorithm, fmtPercent(mr_value),
                           fmtDouble(frac, 3)});
        }
    }
    series.renderCsv(os);
    os << '\n';
}

EvalOptions
evalOptionsFrom(const Options &opts)
{
    EvalOptions eval;
    eval.cache.size_bytes = static_cast<std::uint32_t>(
        opts.getInt("cache-kb", 8) * 1024);
    eval.cache.line_bytes =
        static_cast<std::uint32_t>(opts.getInt("line-bytes", 32));
    eval.cache.associativity =
        static_cast<std::uint32_t>(opts.getInt("assoc", 1));
    eval.cache.policy = parseReplacementPolicy(
        opts.getString("policy", replacementPolicyName(
                                     ReplacementPolicy::kLru)));
    eval.cache.policy_seed = static_cast<std::uint64_t>(opts.getInt(
        "policy-seed", static_cast<std::int64_t>(kDefaultPolicySeed)));
    eval.chunk_bytes =
        static_cast<std::uint32_t>(opts.getInt("chunk-bytes", 256));
    eval.q_budget_factor = opts.getDouble("q-factor", 2.0);
    eval.popularity.coverage = opts.getDouble("coverage", 0.999);
    eval.cache.validate();
    // The Q budget, q-factor x cache size, becomes a byte count (the
    // comparisons also reject a NaN factor).
    const double budget = eval.q_budget_factor * eval.cache.size_bytes;
    if (!(budget >= 1.0 && budget < 0x1p64))
        fail("--q-factor must make q-factor x cache size at least 1 byte "
             "and below 2^64 bytes (got " +
                 opts.getString("q-factor", "2") +
                 "; the paper uses --q-factor=2)");
    if (!(eval.popularity.coverage > 0.0 &&
          eval.popularity.coverage <= 1.0))
        fail("--coverage must be in (0, 1] (got " +
                 opts.getString("coverage", "0.999") +
                 "; the default is --coverage=0.999)");
    return eval;
}

double
traceScaleFrom(const Options &opts)
{
    const double scale = opts.getDouble("trace-scale", 1.0);
    if (!(std::isfinite(scale) && scale > 0.0))
        fail("--trace-scale must be a positive, finite number (got " +
                 opts.getString("trace-scale", "1.0") +
                 "; did you mean --trace-scale=1.0?)");
    return scale;
}

} // namespace topo
