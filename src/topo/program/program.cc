#include "topo/program/program.hh"

#include "topo/util/error.hh"

namespace topo
{

Program::Program(std::string name)
    : name_(std::move(name))
{
}

ProcId
Program::addProcedure(const std::string &name, std::uint32_t size_bytes)
{
    if (size_bytes == 0)
        fail("Program::addProcedure: zero-sized procedure '" + name + "'");
    require(procs_.size() < kInvalidProc,
            "Program::addProcedure: too many procedures");
    procs_.push_back(Procedure{name, size_bytes});
    total_size_ += size_bytes;
    return static_cast<ProcId>(procs_.size() - 1);
}

const Procedure &
Program::proc(ProcId id) const
{
    require(id < procs_.size(), "Program::proc: invalid procedure id");
    return procs_[id];
}

ProcId
Program::findProc(const std::string &name) const
{
    for (std::size_t i = 0; i < procs_.size(); ++i) {
        if (procs_[i].name == name)
            return static_cast<ProcId>(i);
    }
    return kInvalidProc;
}

std::uint32_t
Program::sizeInLines(ProcId id, std::uint32_t line_bytes) const
{
    require(line_bytes > 0, "Program::sizeInLines: zero line size");
    const Procedure &p = proc(id);
    return (p.size_bytes + line_bytes - 1) / line_bytes;
}

} // namespace topo
