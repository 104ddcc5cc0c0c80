/**
 * @file
 * Online profiling example (the Section 4.4 deployment model).
 *
 * Instead of writing a trace to disk and post-processing it, an
 * instrumented program calls ProfileCollector::onRun for every
 * execution run; profiles are harvested live and a new layout can be
 * produced at any point. Here the "instrumented program" is the
 * synthetic workload walker feeding the collector run by run.
 */

#include <iostream>

#include "topo/cache/simulate.hh"
#include "topo/placement/gbsc.hh"
#include "topo/placement/popularity.hh"
#include "topo/profile/collector.hh"
#include "topo/workload/synthetic_program.hh"
#include "topo/workload/trace_synthesizer.hh"

int
main()
{
    using namespace topo;

    // The application being profiled.
    SyntheticSpec spec;
    spec.name = "service";
    spec.proc_count = 80;
    spec.total_bytes = 160 * 1024;
    spec.popular_count = 24;
    spec.popular_bytes = 40 * 1024;
    spec.phase_count = 3;
    spec.ranks = 3;
    spec.seed = 2024;
    const WorkloadModel model = buildSyntheticWorkload(spec);

    const CacheConfig cache = CacheConfig::paperDefault();
    CollectorOptions copts;
    copts.byte_budget = 2 * cache.size_bytes;
    ProfileCollector collector(model.program, copts);

    // "Run" the program; every run goes straight into the collector
    // (in a real deployment this is the instrumentation callback; the
    // paper reports ~25x slowdown for the instrumented binaries).
    WorkloadInput input;
    input.seed = 7;
    input.target_runs = 200000;
    const Trace execution = synthesizeTrace(model, input);
    for (const TraceEvent &ev : execution.events())
        collector.onRun(ev.proc, ev.offset, ev.length);

    std::cout << "collected " << collector.runCount()
              << " runs without storing a trace\n";
    const TraceProfile profile = collector.take();
    std::cout << "WCG edges: " << profile.wcg.edgeCount()
              << ", TRG_select edges: "
              << profile.trg_select.edgeCount()
              << ", TRG_place edges: " << profile.trg_place.edgeCount()
              << ", avg Q size: " << profile.avgQueueProcs() << "\n";

    // Derive the popular set from the collected statistics and place.
    const PopularSet popular =
        selectPopular(model.program, profile.stats);
    const Gbsc gbsc;
    const Layout layout =
        gbsc.place(profileContext(model.program, cache, collector.chunks(),
                                  profile, popular.mask));

    // Evaluate on a second, different execution of the service.
    WorkloadInput next;
    next.seed = 8;
    next.target_runs = 200000;
    const Trace rerun = synthesizeTrace(model, next);
    const FetchStream stream(model.program, rerun, cache.line_bytes);
    const Layout default_layout =
        Layout::defaultOrder(model.program, cache.line_bytes);
    std::cout << "next execution, default layout: "
              << layoutMissRate(model.program, default_layout, stream,
                                cache) *
                     100.0
              << "% miss rate\n";
    std::cout << "next execution, GBSC layout:    "
              << layoutMissRate(model.program, layout, stream, cache) *
                     100.0
              << "% miss rate\n";
    return 0;
}
