#include "topo/program/layout_io.hh"

#include <fstream>
#include <sstream>

#include "topo/util/error.hh"
#include "topo/util/string_utils.hh"

namespace topo
{

namespace
{

/** Emit one "!<key> <value>" metadata line when the value is set. */
void
writeMeta(std::ostream &os, const char *key, const std::string &value)
{
    if (!value.empty())
        os << '!' << key << ' ' << value << '\n';
}

void
writeEntries(std::ostream &os, const Program &program,
             const Layout &layout)
{
    for (ProcId id : layout.orderByAddress())
        os << program.proc(id).name << ' ' << layout.address(id) << '\n';
}

} // namespace

std::string
LayoutProvenance::describe() const
{
    std::ostringstream os;
    const char *sep = "";
    if (!algorithm.empty()) {
        os << "algorithm=" << algorithm;
        sep = " ";
    }
    if (!cache.empty()) {
        os << sep << "cache=" << cache;
        sep = " ";
    }
    if (!git_sha.empty()) {
        os << sep << "sha=" << git_sha;
        sep = " ";
    }
    if (!seed.empty())
        os << sep << "seed=" << seed;
    return os.str();
}

void
writeLayout(std::ostream &os, const Program &program, const Layout &layout)
{
    os << "topo-layout v1\n";
    writeEntries(os, program, layout);
}

void
writeLayout(std::ostream &os, const Program &program, const Layout &layout,
            const LayoutProvenance &provenance)
{
    os << "topo-layout v2\n";
    writeMeta(os, "algorithm", provenance.algorithm);
    writeMeta(os, "cache", provenance.cache);
    writeMeta(os, "git_sha", provenance.git_sha);
    writeMeta(os, "seed", provenance.seed);
    writeEntries(os, program, layout);
}

Layout
readLayout(std::istream &is, const Program &program,
           LayoutProvenance *provenance)
{
    std::string line;
    requireData(static_cast<bool>(std::getline(is, line)),
                "readLayout: missing header");
    const std::string header = trim(line);
    const bool v2 = header == "topo-layout v2";
    if (header != "topo-layout v1" && !v2)
        failCorrupt("readLayout: bad header '" + line + "'");
    Layout layout(program.procCount());
    LayoutProvenance meta;
    std::size_t line_no = 1;
    while (std::getline(is, line)) {
        ++line_no;
        const std::string body = trim(line);
        if (body.empty() || body[0] == '#')
            continue;
        if (body[0] == '!') {
            if (!v2)
                failCorrupt("readLayout: metadata line in a v1 file at line " +
                                std::to_string(line_no));
            const std::size_t space = body.find(' ');
            const std::string key =
                body.substr(1, space == std::string::npos
                                   ? std::string::npos
                                   : space - 1);
            const std::string value =
                space == std::string::npos ? ""
                                           : trim(body.substr(space + 1));
            if (key == "algorithm")
                meta.algorithm = value;
            else if (key == "cache")
                meta.cache = value;
            else if (key == "git_sha")
                meta.git_sha = value;
            else if (key == "seed")
                meta.seed = value;
            else
                failCorrupt("readLayout: unknown metadata key '" + key +
                            "' at line " + std::to_string(line_no));
            continue;
        }
        std::istringstream fields(body);
        std::string name;
        std::uint64_t address = 0;
        fields >> name >> address;
        if (fields.fail() || name.empty())
            failCorrupt("readLayout: malformed entry at line " +
                            std::to_string(line_no));
        const ProcId id = program.findProc(name);
        if (id == kInvalidProc)
            failCorrupt("readLayout: unknown procedure '" + name +
                            "' at line " + std::to_string(line_no));
        if (layout.assigned(id))
            failCorrupt("readLayout: duplicate procedure '" + name +
                            "' at line " + std::to_string(line_no));
        layout.setAddress(id, address);
    }
    requireData(layout.complete(),
                "readLayout: layout does not cover every procedure");
    if (provenance)
        *provenance = std::move(meta);
    return layout;
}

void
saveLayout(const std::string &path, const Program &program,
           const Layout &layout)
{
    std::ofstream os(path);
    if (!os.good())
        fail("saveLayout: cannot open '" + path + "'");
    writeLayout(os, program, layout);
    if (!os.good())
        fail("saveLayout: write failed for '" + path + "'");
}

void
saveLayout(const std::string &path, const Program &program,
           const Layout &layout, const LayoutProvenance &provenance)
{
    std::ofstream os(path);
    if (!os.good())
        fail("saveLayout: cannot open '" + path + "'");
    writeLayout(os, program, layout, provenance);
    if (!os.good())
        fail("saveLayout: write failed for '" + path + "'");
}

Layout
loadLayout(const std::string &path, const Program &program,
           LayoutProvenance *provenance)
{
    std::ifstream is(path);
    if (!is.good())
        fail("loadLayout: cannot open '" + path + "'");
    return readLayout(is, program, provenance);
}

} // namespace topo
