/**
 * @file
 * Ablation of the popularity threshold (Section 4 adopts Hashemi et
 * al.'s popular-procedure restriction "for efficiency reasons").
 * Sweeps the dynamic-byte coverage of the popular set and reports the
 * popular-set size and the resulting GBSC miss rate.
 */

#include "ablation_common.hh"

int
main(int argc, char **argv)
{
    using namespace topo;
    using namespace topo::bench;
    const Options opts = Options::parse(argc, argv);
    if (opts.helpRequested()) {
        std::cout << "ablation_popularity: sweep popular-set coverage.\n"
                     "  --benchmark=NAME --trace-scale=F\n";
        return 0;
    }
    const double trace_scale = opts.getDouble("trace-scale", 0.5);
    TextTable table({"benchmark", "coverage", "popular procs",
                     "popular bytes", "GBSC MR"});
    for (const std::string &name : ablationBenchmarks(opts)) {
        const BenchmarkCase bench = paperBenchmark(name, trace_scale);
        for (double coverage : {0.90, 0.95, 0.99, 0.999, 1.0}) {
            std::cerr << name << " coverage " << coverage << " ...\n";
            EvalOptions eval = evalOptionsFrom(opts);
            eval.popularity.coverage = coverage;
            const ProfileBundle bundle(bench, eval);
            const Gbsc gbsc;
            const double mr =
                bundle.testMissRate(gbsc.place(bundle.makeContext()));
            table.addRow({name, fmtDouble(coverage, 3),
                          std::to_string(bundle.profile().popular.count),
                          fmtBytes(bundle.profile().popular.bytes),
                          fmtPercent(mr)});
        }
    }
    table.render(std::cout,
                 "Ablation: popular-set coverage (library default: "
                 "0.999)");
    return 0;
}
