/**
 * @file
 * Ablation: profile sampling rate vs placement quality.
 *
 * Section 4.4's instrumented executables run ~25x slower; burst
 * sampling cuts that cost proportionally. This bench builds the
 * profile (TRGs and popularity) from a sampled training trace and
 * measures the resulting GBSC layout on the *full* test trace, across
 * sampling fractions.
 */

#include <iostream>

#include "topo/eval/reports.hh"
#include "topo/placement/gbsc.hh"
#include "topo/trace/sampling.hh"
#include "topo/util/table.hh"
#include "topo/workload/trace_synthesizer.hh"

namespace
{

using namespace topo;

double
gbscFromSampledProfile(const Program &program, const Trace &sampled_train,
                       const Trace &full_test, const EvalOptions &eval)
{
    const Layout layout =
        Gbsc().place(buildProfile(program, sampled_train, eval).context());
    const FetchStream stream(program, full_test, eval.cache.line_bytes);
    return layoutMissRate(program, layout, stream, eval.cache);
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace topo;
    const Options opts = Options::parse(argc, argv);
    if (opts.helpRequested()) {
        std::cout << "ablation_sampling: profile sampling fraction vs "
                     "GBSC quality.\n  --benchmark=NAME "
                     "--trace-scale=F\n";
        return 0;
    }
    const EvalOptions eval = evalOptionsFrom(opts);
    const double scale = opts.getDouble("trace-scale", 0.4);
    const std::string only = opts.getString("benchmark", "");

    TextTable table({"benchmark", "profile fraction", "train runs kept",
                     "GBSC MR (full test trace)"});
    std::vector<std::string> names{"go", "perl", "vortex"};
    if (!only.empty())
        names = {only};
    for (const std::string &name : names) {
        const BenchmarkCase bench = paperBenchmark(name, scale);
        const Trace train = synthesizeTrace(bench.model, bench.train);
        const Trace test = synthesizeTrace(bench.model, bench.test);
        for (double fraction : {1.0, 0.3, 0.1, 0.03, 0.01}) {
            std::cerr << name << " fraction " << fraction << " ...\n";
            const Trace sampled = burstSampleFraction(train, fraction);
            const double mr = gbscFromSampledProfile(
                bench.model.program, sampled, test, eval);
            table.addRow({name, fmtDouble(fraction, 2),
                          fmtCount(sampled.size()), fmtPercent(mr)});
        }
    }
    table.render(std::cout,
                 "Ablation: burst-sampled profiles (2000-run bursts); "
                 "the Section 4.4 instrumentation cost shrinks with "
                 "the fraction");
    return 0;
}
