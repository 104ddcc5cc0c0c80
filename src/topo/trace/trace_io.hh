/**
 * @file
 * Text serialisation of traces.
 *
 * Format: one header line "topo-trace v1 <proc_count>", then one line
 * per run: "<proc> <offset> <length>". Lines beginning with '#' are
 * comments. The format is deliberately simple so externally collected
 * traces (e.g. from a Pin/valgrind tool) can be fed to the library.
 *
 * This header also defines the read/write option structs shared with
 * the binary format (trace_binary.hh): both readers support a recover
 * mode that salvages the valid prefix of a damaged file instead of
 * aborting the run. loadAnyTrace (trace_binary.hh) parses a text
 * trace from the same in-memory bytes it sniffs the magic on, so text
 * traces load from pipes too.
 */

#ifndef TOPO_TRACE_TRACE_IO_HH
#define TOPO_TRACE_TRACE_IO_HH

#include <cstdint>
#include <iosfwd>
#include <string>

#include "topo/trace/trace.hh"

namespace topo
{

/** Writer knobs (binary format only; text ignores them). */
struct TraceWriteOptions
{
    /** Records per v2 chunk; tests shrink this to force many chunks. */
    std::size_t records_per_chunk = 65536;
};

/** What a recover-mode read salvaged (all zero for a clean read). */
struct TraceRecovery
{
    /** True when anything was dropped (salvage actually engaged). */
    bool recovered = false;
    /** Intact chunks kept in front of the first bad one (v2 only). */
    std::uint64_t chunks_recovered = 0;
    /** Records in the salvaged prefix. */
    std::uint64_t records_recovered = 0;
    /** Records the input promised/held but the read could not keep. */
    std::uint64_t records_dropped = 0;
};

/** Reader knobs. */
struct TraceReadOptions
{
    /** Salvage the valid prefix instead of failing on corruption. */
    bool recover = false;
    /** When non-null, filled with what a recover-mode read salvaged. */
    TraceRecovery *report = nullptr;
};

/** Write a trace in the text format. */
void writeTrace(std::ostream &os, const Trace &trace);

/**
 * Read a text trace; throws a corrupt-input TopoError on malformed
 * content unless @p ropts.recover is set, in which case the valid
 * line prefix is salvaged and the loss reported via metrics.
 */
Trace readTrace(std::istream &is, const TraceReadOptions &ropts = {});

/** Write a trace to a file path. */
void saveTrace(const std::string &path, const Trace &trace);

/** Read a trace from a file path. */
Trace loadTrace(const std::string &path,
                const TraceReadOptions &ropts = {});

} // namespace topo

#endif // TOPO_TRACE_TRACE_IO_HH
