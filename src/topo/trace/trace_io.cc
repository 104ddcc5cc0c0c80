#include "topo/trace/trace_io.hh"

#include <fstream>
#include <sstream>

#include "topo/obs/log.hh"
#include "topo/obs/metrics.hh"
#include "topo/resilience/fault.hh"
#include "topo/util/error.hh"
#include "topo/util/string_utils.hh"

namespace topo
{

namespace
{

/** Same untrusted-size ceiling as the binary reader. */
constexpr std::uint64_t kMaxProcCount = 1ULL << 31;

/** Report a text-mode salvage through metrics, log, and the report. */
void
reportTextSalvage(std::istream &is, std::string &line,
                  std::size_t kept, std::size_t bad_line,
                  const TraceReadOptions &ropts)
{
    // The text format carries no total, so count what remains after
    // the first bad line to quantify the loss.
    std::uint64_t dropped = 1;
    while (std::getline(is, line)) {
        const std::string body = trim(line);
        if (!body.empty() && body[0] != '#')
            ++dropped;
    }
    MetricsRegistry::current()
        .counter("trace.dropped_records")
        .add(dropped);
    logWarn("trace", "salvaged text trace",
            {{"first_bad_line", std::uint64_t(bad_line)},
             {"records_recovered", std::uint64_t(kept)},
             {"records_dropped", dropped}});
    if (ropts.report != nullptr) {
        ropts.report->recovered = true;
        ropts.report->records_recovered = kept;
        ropts.report->records_dropped = dropped;
    }
}

} // namespace

void
writeTrace(std::ostream &os, const Trace &trace)
{
    os << "topo-trace v1 " << trace.procCount() << '\n';
    for (const TraceEvent &ev : trace.events())
        os << ev.proc << ' ' << ev.offset << ' ' << ev.length << '\n';
}

Trace
readTrace(std::istream &is, const TraceReadOptions &ropts)
{
    std::string line;
    requireData(static_cast<bool>(std::getline(is, line)),
                "readTrace: missing header");
    std::istringstream header(line);
    std::string magic, version;
    std::uint64_t proc_count = 0;
    header >> magic >> version >> proc_count;
    if (magic != "topo-trace" || version != "v1")
        failCorrupt("readTrace: bad header '" + line + "'");
    if (proc_count > kMaxProcCount)
        failCorrupt("readTrace: implausible procedure count " +
                        std::to_string(proc_count));
    Trace trace(proc_count);
    std::size_t line_no = 1;
    while (std::getline(is, line)) {
        ++line_no;
        faultMaybeThrowIo("trace_io.line");
        if (!line.empty())
            faultMaybeCorrupt("trace_io.line", line.data(),
                              line.size());
        const std::string body = trim(line);
        if (body.empty() || body[0] == '#')
            continue;
        std::istringstream fields(body);
        std::uint64_t proc = 0, offset = 0, length = 0;
        fields >> proc >> offset >> length;
        const bool well_formed = !fields.fail() && proc < proc_count;
        if (!well_formed) {
            if (ropts.recover) {
                reportTextSalvage(is, line, trace.size(), line_no,
                                  ropts);
                return trace;
            }
            if (fields.fail())
                failCorrupt("readTrace: malformed run at line " +
                                std::to_string(line_no));
            failCorrupt("readTrace: procedure id out of range at "
                        "line " +
                        std::to_string(line_no));
        }
        trace.append(static_cast<ProcId>(proc),
                     static_cast<std::uint32_t>(offset),
                     static_cast<std::uint32_t>(length));
    }
    if (ropts.report != nullptr)
        ropts.report->records_recovered = trace.size();
    return trace;
}

void
saveTrace(const std::string &path, const Trace &trace)
{
    std::ofstream os(path);
    if (!os.good())
        fail("saveTrace: cannot open '" + path + "'");
    writeTrace(os, trace);
    if (!os.good())
        fail("saveTrace: write failed for '" + path + "'");
}

} // namespace topo
