#include "topo/trace/trace.hh"

#include "topo/util/error.hh"

namespace topo
{

Trace::Trace(std::size_t proc_count)
    : proc_count_(proc_count)
{
}

void
Trace::append(ProcId proc, std::uint32_t offset, std::uint32_t length)
{
    require(proc < proc_count_, "Trace::append: invalid procedure id");
    require(length > 0, "Trace::append: zero-length run");
    events_.push_back(TraceEvent{proc, offset, length});
}

void
Trace::validate(const Program &program) const
{
    require(program.procCount() == proc_count_,
            "Trace::validate: program/trace procedure count mismatch");
    for (const TraceEvent &ev : events_) {
        require(ev.proc < program.procCount(),
                "Trace::validate: invalid procedure id");
        const Procedure &p = program.proc(ev.proc);
        require(ev.length > 0, "Trace::validate: zero-length run");
        if (static_cast<std::uint64_t>(ev.offset) + ev.length >
            p.size_bytes)
            fail("Trace::validate: run exceeds bounds of procedure '" +
                     p.name + "'");
    }
}

} // namespace topo
