/**
 * @file
 * Section 5.2's exclusion rationale: "we use only five of the eight
 * SPECint95 benchmarks because the other three (compress, ijpeg, and
 * xlisp) are uninteresting in that all have small instruction working
 * sets that do equally well under any reasonable procedure-placement
 * algorithm."
 *
 * This bench builds compress/ijpeg/xlisp-like models — small hot sets
 * that fit the cache — and shows exactly that: every algorithm,
 * including the default layout, lands within noise of the cold-miss
 * floor.
 */

#include <iostream>

#include "topo/eval/reports.hh"
#include "topo/placement/cache_coloring.hh"
#include "topo/placement/gbsc.hh"
#include "topo/placement/pettis_hansen.hh"
#include "topo/util/table.hh"
#include "topo/workload/synthetic_program.hh"

namespace
{

using namespace topo;

BenchmarkCase
excludedCase(const char *name, std::uint32_t procs,
             std::uint64_t total_kb, std::uint32_t popular,
             std::uint64_t popular_kb, std::uint64_t seed,
             double trace_scale)
{
    SyntheticSpec spec;
    spec.name = name;
    spec.proc_count = procs;
    spec.total_bytes = total_kb * 1024;
    spec.popular_count = popular;
    spec.popular_bytes = popular_kb * 1024;
    spec.phase_count = 2;
    spec.ranks = 3;
    spec.seed = seed;
    BenchmarkCase bench;
    bench.name = name;
    bench.model = buildSyntheticWorkload(spec);
    bench.train.seed = seed + 1;
    bench.test.seed = seed + 2;
    bench.train.target_runs = bench.test.target_runs =
        static_cast<std::uint64_t>(400000 * trace_scale);
    return bench;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace topo;
    const Options opts = Options::parse(argc, argv);
    if (opts.helpRequested()) {
        std::cout << "section52_excluded: why compress/ijpeg/xlisp "
                     "were excluded.\n  --trace-scale=F\n";
        return 0;
    }
    const EvalOptions eval = evalOptionsFrom(opts);
    const double scale = opts.getDouble("trace-scale", 1.0);

    // Hot working sets well under the 8KB cache; text sizes loosely
    // modelled on the SPECint95 binaries.
    const BenchmarkCase cases[] = {
        excludedCase("compress", 60, 80, 6, 6, 901, scale),
        excludedCase("ijpeg", 300, 400, 10, 7, 902, scale),
        excludedCase("xlisp", 350, 250, 12, 7, 903, scale),
    };

    const DefaultPlacement def;
    const PettisHansen ph;
    const CacheColoring hkc;
    const Gbsc gbsc;
    TextTable table({"benchmark", "popular bytes", "default MR",
                     "PH MR", "HKC MR", "GBSC MR"});
    for (const BenchmarkCase &bench : cases) {
        std::cerr << "running " << bench.name << " ...\n";
        const ProfileBundle bundle(bench, eval);
        const PlacementContext ctx = bundle.makeContext();
        table.addRow({bench.name, fmtBytes(bundle.profile().popular.bytes),
                      fmtPercent(bundle.testMissRate(def.place(ctx))),
                      fmtPercent(bundle.testMissRate(ph.place(ctx))),
                      fmtPercent(bundle.testMissRate(hkc.place(ctx))),
                      fmtPercent(bundle.testMissRate(gbsc.place(ctx)))});
    }
    table.render(std::cout,
                 "Section 5.2: the excluded benchmarks — hot sets "
                 "that fit the cache (" + eval.cache.describe() + ")");
    std::cout << "\nPaper: compress, ijpeg, and xlisp \"do equally "
                 "well under any reasonable procedure-placement "
                 "algorithm\"; with the working set inside the cache "
                 "there are no conflict misses for placement to "
                 "remove.\n";
    return 0;
}
