/**
 * @file
 * Compact binary trace format.
 *
 * Real profiling traces are tens of millions of runs (Table 1 inputs
 * are 17M-146M basic blocks); the text format is convenient but
 * bulky. The binary format stores runs as LEB128 varints with
 * delta-coded procedure ids, typically 2-4 bytes per run.
 *
 * Version 2 (written by default) hardens the format against the
 * partial writes and silent corruption that long collection runs hit
 * in practice: records are grouped into chunks, each carrying its own
 * record count and CRC-32, and the header promises the total record
 * count so losses are quantifiable:
 *
 *   magic "TOPB" varint version=2
 *   varint proc_count
 *   varint run_count                 (total records in the file)
 *   chunk*:
 *     varint record_count            (> 0)
 *     varint payload_bytes
 *     u32le  crc32(payload)
 *     payload: record_count runs as varint zigzag(proc - prev_proc),
 *              varint offset, varint length; prev_proc restarts at 0
 *              each chunk, so every chunk decodes independently
 *
 * Version 1 (headerless stream of runs after "TOPB" 1 proc_count
 * run_count) is still readable.
 *
 * Readers run in one of two modes. Strict (default): any truncation,
 * CRC mismatch, or malformed field throws a corrupt-input TopoError
 * (tool exit code 2). Recover (--recover): the valid chunk prefix is
 * salvaged, the loss is reported through the trace.recovered_chunks /
 * trace.dropped_records metrics and a warning log, and the pipeline
 * continues on the salvaged trace.
 */

#ifndef TOPO_TRACE_TRACE_BINARY_HH
#define TOPO_TRACE_TRACE_BINARY_HH

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "topo/trace/trace.hh"
#include "topo/trace/trace_io.hh" // TraceWriteOptions/TraceReadOptions

namespace topo
{

/** Write a trace in the binary format (v2). */
void writeBinaryTrace(std::ostream &os, const Trace &trace,
                      const TraceWriteOptions &wopts = {});

/**
 * Read a binary trace (v1 or v2) from the rest of @p is: the stream is
 * read to its end and decoded by decodeBinaryTrace.
 */
Trace readBinaryTrace(std::istream &is,
                      const TraceReadOptions &ropts = {});

/**
 * Decode a complete in-memory binary trace image (v1 or v2). This is
 * the one binary-trace decoder: every load ends here, whether its
 * bytes are a mapped file, a file or pipe read into memory, or a
 * stream. Records are parsed and CRCs verified in place over
 * [data, data + size); payloads are copied only when a bitflip fault
 * is armed. Throws a corrupt-input TopoError on malformed input unless
 * @p ropts.recover is set.
 */
Trace decodeBinaryTrace(const char *data, std::size_t size,
                        const TraceReadOptions &ropts = {});

/** Write a binary trace to a file path. */
void saveBinaryTrace(const std::string &path, const Trace &trace,
                     const TraceWriteOptions &wopts = {});

/**
 * Read a binary trace from a file path: the file is mapped when it
 * maps (trace_mmap.hh) and read into memory otherwise, so a pipe such
 * as /dev/stdin loads too.
 */
Trace loadBinaryTrace(const std::string &path,
                      const TraceReadOptions &ropts = {});

/**
 * Load a trace from a path, auto-detecting text ("topo-trace") vs
 * binary ("TOPB") by the leading magic. The file's bytes are obtained
 * once, as in loadBinaryTrace, and both the sniff and the parse read
 * them, so pipes work for either format. Recover mode applies to both
 * (for text, the valid line prefix is salvaged).
 */
Trace loadAnyTrace(const std::string &path,
                   const TraceReadOptions &ropts = {});

/** Structural position of one v2 chunk inside a trace file image. */
struct ChunkExtent
{
    /** Byte offset of the chunk header. */
    std::size_t begin = 0;
    /** Byte offset one past the chunk payload. */
    std::size_t end = 0;
    /** Records the chunk header promises. */
    std::uint64_t records = 0;
};

/**
 * Map the chunk layout of an in-memory v2 trace image without
 * decoding payloads (CRCs are not verified). Used by topo_corrupt to
 * target whole-chunk drops. Throws a corrupt-input TopoError when
 * @p bytes is not a structurally complete v2 trace.
 */
std::vector<ChunkExtent> scanBinaryTraceChunks(const std::string &bytes);

} // namespace topo

#endif // TOPO_TRACE_TRACE_BINARY_HH
