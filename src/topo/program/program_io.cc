#include "topo/program/program_io.hh"

#include <fstream>
#include <sstream>

#include "topo/util/error.hh"
#include "topo/util/string_utils.hh"

namespace topo
{

void
writeProgram(std::ostream &os, const Program &program)
{
    os << "topo-program v1\n";
    os << "# " << program.procCount() << " procedures, "
       << program.totalSize() << " bytes\n";
    for (const Procedure &proc : program.procs())
        os << proc.name << ' ' << proc.size_bytes << '\n';
}

Program
readProgram(std::istream &is, const std::string &name)
{
    std::string line;
    requireData(static_cast<bool>(std::getline(is, line)),
                "readProgram: missing header");
    if (trim(line) != "topo-program v1")
        failCorrupt("readProgram: bad header '" + line + "'");
    Program program(name);
    std::size_t line_no = 1;
    while (std::getline(is, line)) {
        ++line_no;
        const std::string body = trim(line);
        if (body.empty() || body[0] == '#')
            continue;
        std::istringstream fields(body);
        std::string proc_name;
        std::uint64_t size = 0;
        fields >> proc_name >> size;
        if (fields.fail() || proc_name.empty())
            failCorrupt("readProgram: malformed procedure at line " +
                            std::to_string(line_no));
        if (size == 0 || size > ~std::uint32_t{0})
            failCorrupt("readProgram: bad size at line " +
                            std::to_string(line_no));
        if (program.findProc(proc_name) != kInvalidProc)
            failCorrupt("readProgram: duplicate procedure '" + proc_name +
                            "' at line " + std::to_string(line_no));
        program.addProcedure(proc_name,
                             static_cast<std::uint32_t>(size));
    }
    return program;
}

void
saveProgram(const std::string &path, const Program &program)
{
    std::ofstream os(path);
    if (!os.good())
        fail("saveProgram: cannot open '" + path + "'");
    writeProgram(os, program);
    if (!os.good())
        fail("saveProgram: write failed for '" + path + "'");
}

Program
loadProgram(const std::string &path)
{
    std::ifstream is(path);
    if (!is.good())
        fail("loadProgram: cannot open '" + path + "'");
    // Derive a display name from the file name.
    std::string name = path;
    const std::size_t slash = name.find_last_of('/');
    if (slash != std::string::npos)
        name = name.substr(slash + 1);
    return readProgram(is, name);
}

} // namespace topo
