#include "topo/workload/skeleton.hh"

#include "topo/util/error.hh"

namespace topo
{

void
WorkloadModel::validate() const
{
    require(bodies.size() == program.procCount(),
            "WorkloadModel: one body required per procedure");
    for (std::size_t i = 0; i < bodies.size(); ++i) {
        const auto id = static_cast<ProcId>(i);
        const std::uint32_t size = program.proc(id).size_bytes;
        if (bodies[i].items.empty())
            fail("WorkloadModel: empty body for '" + program.proc(id).name +
                     "'");
        for (const BodyItem &item : bodies[i].items) {
            if (item.run_length == 0)
                fail("WorkloadModel: zero-length run in '" +
                         program.proc(id).name + "'");
            if (static_cast<std::uint64_t>(item.run_begin) +
                    item.run_length >
                size)
                fail("WorkloadModel: run outside procedure '" +
                         program.proc(id).name + "'");
            if (item.callee != kInvalidProc) {
                if (item.callee >= program.procCount())
                    fail("WorkloadModel: invalid callee in '" +
                             program.proc(id).name + "'");
                require(item.callee != id,
                        "WorkloadModel: direct recursion not supported");
                require(item.call_prob >= 0.0 && item.call_prob <= 1.0,
                        "WorkloadModel: call probability out of range");
            }
            require(item.mean_repeats >= 1.0,
                    "WorkloadModel: mean_repeats must be >= 1");
        }
    }
    require(!phases.empty(), "WorkloadModel: at least one phase required");
    for (const Phase &phase : phases) {
        if (phase.roots.empty())
            fail("WorkloadModel: phase '" + phase.name + "' has no roots");
        for (ProcId root : phase.roots) {
            if (root >= program.procCount())
                fail("WorkloadModel: invalid root in phase '" + phase.name +
                         "'");
        }
        require(phase.mean_iterations >= 1.0,
                "WorkloadModel: phase iterations must be >= 1");
    }
    for (ProcId init : init_procs) {
        require(init < program.procCount(),
                "WorkloadModel: invalid init procedure");
    }
}

} // namespace topo
