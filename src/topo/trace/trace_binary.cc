#include "topo/trace/trace_binary.hh"

#include <algorithm>
#include <fstream>
#include <istream>
#include <optional>
#include <ostream>
#include <sstream>
#include <streambuf>
#include <string_view>

#include "topo/obs/log.hh"
#include "topo/obs/metrics.hh"
#include "topo/resilience/crc32.hh"
#include "topo/resilience/fault.hh"
#include "topo/trace/trace_io.hh"
#include "topo/trace/trace_mmap.hh"
#include "topo/util/error.hh"

namespace topo
{

namespace
{

constexpr std::string_view kMagic = "TOPB";
constexpr std::uint32_t kVersionV1 = 1;
constexpr std::uint32_t kVersionV2 = 2;

/**
 * Validation ceilings for size fields read from untrusted input. A
 * header field is never trusted for an allocation before it clears
 * these bounds (a 12-byte file must not make us reserve 2^60 slots).
 */
constexpr std::uint64_t kMaxProcCount = 1ULL << 31;
constexpr std::uint64_t kMaxChunkRecords = 1ULL << 22;
/** Worst-case encoded record: 10+5+5 varint bytes, rounded up. */
constexpr std::uint64_t kMaxRecordBytes = 30;
/** Cap speculative reserve() for v1 headers (append still grows). */
constexpr std::uint64_t kReserveCap = 1ULL << 20;

void
putVarint(std::string &out, std::uint64_t value)
{
    while (value >= 0x80) {
        out.push_back(static_cast<char>(0x80 | (value & 0x7f)));
        value >>= 7;
    }
    out.push_back(static_cast<char>(value));
}

std::uint64_t
getVarint(std::string_view buf, std::size_t &pos, const char *what)
{
    std::uint64_t value = 0;
    int shift = 0;
    for (;;) {
        requireData(pos < buf.size(),
                    std::string("truncated varint in ") + what);
        requireData(shift < 64,
                    std::string("varint overflow in ") + what);
        const int byte = static_cast<unsigned char>(buf[pos++]);
        value |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
        if (!(byte & 0x80))
            return value;
        shift += 7;
    }
}

std::uint64_t
zigzag(std::int64_t value)
{
    return (static_cast<std::uint64_t>(value) << 1) ^
           static_cast<std::uint64_t>(value >> 63);
}

std::int64_t
unzigzag(std::uint64_t value)
{
    return static_cast<std::int64_t>(value >> 1) ^
           -static_cast<std::int64_t>(value & 1);
}

/** Decode one run; shared by the v1 and v2 body decoders. */
TraceEvent
decodeRecord(std::uint64_t zz_delta, std::uint64_t offset,
             std::uint64_t length, std::int64_t &prev_proc,
             std::uint64_t proc_count)
{
    const std::int64_t proc = prev_proc + unzigzag(zz_delta);
    requireData(proc >= 0 &&
                    proc < static_cast<std::int64_t>(proc_count),
                "readBinaryTrace: procedure id out of range");
    requireData(offset <= ~std::uint32_t{0} &&
                    length <= ~std::uint32_t{0},
                "readBinaryTrace: field overflow");
    prev_proc = proc;
    return TraceEvent{static_cast<ProcId>(proc),
                      static_cast<std::uint32_t>(offset),
                      static_cast<std::uint32_t>(length)};
}

/** The fixed header every binary trace starts with. */
struct Header
{
    std::uint64_t version = 0;
    std::uint64_t proc_count = 0;
    std::uint64_t run_count = 0;
    /** Offset of the first byte after the header. */
    std::size_t body = 0;
};

/** Parse and bound-check the header; @p who prefixes the errors. */
Header
readHeader(std::string_view buf, const std::string &who)
{
    requireData(buf.starts_with(kMagic), who + ": bad magic");
    Header header;
    header.body = 4;
    header.version = getVarint(buf, header.body, "header");
    requireData(header.version == kVersionV1 ||
                    header.version == kVersionV2,
                who + ": unsupported version " +
                    std::to_string(header.version));
    header.proc_count = getVarint(buf, header.body, "header");
    requireData(header.proc_count <= kMaxProcCount,
                who + ": implausible procedure count " +
                    std::to_string(header.proc_count));
    header.run_count = getVarint(buf, header.body, "header");
    return header;
}

/** v1 body: a single undelimited run stream (salvageable per record). */
Trace
readBodyV1(std::string_view buf, const Header &header,
           const TraceReadOptions &ropts)
{
    Trace trace(header.proc_count);
    trace.reserve(static_cast<std::size_t>(
        std::min(header.run_count, kReserveCap)));
    std::size_t pos = header.body;
    std::int64_t prev_proc = 0;
    std::uint64_t got = 0;
    try {
        for (; got < header.run_count; ++got) {
            const std::uint64_t zz = getVarint(buf, pos, "v1 record");
            const std::uint64_t offset = getVarint(buf, pos, "v1 record");
            const std::uint64_t length = getVarint(buf, pos, "v1 record");
            const TraceEvent ev = decodeRecord(
                zz, offset, length, prev_proc, header.proc_count);
            trace.append(ev.proc, ev.offset, ev.length);
        }
    } catch (const TopoError &) {
        if (!ropts.recover)
            throw;
    }
    const std::uint64_t run_count = header.run_count;
    if (got < run_count) {
        if (!ropts.recover) {
            failCorrupt("readBinaryTrace: trace promises " +
                        std::to_string(run_count) + " records, found " +
                        std::to_string(got));
        }
        MetricsRegistry &metrics = MetricsRegistry::current();
        metrics.counter("trace.dropped_records").add(run_count - got);
        logWarn("trace", "salvaged v1 binary trace",
                {{"records_recovered", got},
                 {"records_dropped", run_count - got}});
        if (ropts.report != nullptr) {
            ropts.report->recovered = true;
            ropts.report->records_dropped = run_count - got;
        }
    }
    if (ropts.report != nullptr)
        ropts.report->records_recovered = got;
    return trace;
}

/**
 * Decode the v2 chunk at @p pos into @p out. Header varints, CRC and
 * records are parsed in place over the image, and the CRC is computed
 * as the chunk is decoded, with no separate checksum pass. @p out and
 * @p flipped are caller-reused scratch, so steady-state decode does
 * no per-chunk heap allocation. Throws a corrupt-input TopoError on
 * truncation, implausible size fields, CRC mismatch, or malformed
 * payload. Returns false at the clean end of the image.
 */
bool
readChunkV2(std::string_view buf, std::size_t &pos,
            std::uint64_t proc_count, std::vector<TraceEvent> &out,
            std::string &flipped)
{
    if (pos == buf.size())
        return false;
    faultMaybeThrowIo("trace_binary.chunk");
    const std::uint64_t record_count =
        getVarint(buf, pos, "v2 chunk header");
    requireData(record_count > 0 && record_count <= kMaxChunkRecords,
                "readBinaryTrace: implausible chunk record count " +
                    std::to_string(record_count));
    const std::uint64_t payload_bytes =
        getVarint(buf, pos, "v2 chunk header");
    requireData(payload_bytes <= record_count * kMaxRecordBytes,
                "readBinaryTrace: implausible chunk payload size " +
                    std::to_string(payload_bytes));
    requireData(pos + 4 <= buf.size(),
                "readBinaryTrace: truncated chunk checksum");
    std::uint32_t crc = 0;
    for (int i = 0; i < 4; ++i) {
        crc |= static_cast<std::uint32_t>(
                   static_cast<unsigned char>(buf[pos + i]))
               << (8 * i);
    }
    pos += 4;
    // A short read keeps part of the payload bytes the image holds.
    const std::size_t present = std::min<std::size_t>(
        static_cast<std::size_t>(payload_bytes), buf.size() - pos);
    requireData(faultMaybeShortenRead("trace_binary.payload", present) ==
                    payload_bytes,
                "readBinaryTrace: truncated chunk payload");
    std::string_view payload =
        buf.substr(pos, static_cast<std::size_t>(payload_bytes));
    if (faultArmed(FaultKind::kBitflip)) {
        // The image may be read-only mapped memory: flip bits in a copy.
        flipped.assign(payload);
        faultMaybeCorrupt("trace_binary.payload", flipped.data(),
                          flipped.size());
        payload = flipped;
    }
    requireData(crc32(payload.data(), payload.size()) == crc,
                "readBinaryTrace: chunk CRC mismatch");

    out.clear();
    out.reserve(static_cast<std::size_t>(record_count));
    std::size_t at = 0;
    std::int64_t prev_proc = 0;
    for (std::uint64_t i = 0; i < record_count; ++i) {
        const std::uint64_t zz = getVarint(payload, at, "v2 record");
        const std::uint64_t offset = getVarint(payload, at, "v2 record");
        const std::uint64_t length = getVarint(payload, at, "v2 record");
        out.push_back(decodeRecord(zz, offset, length, prev_proc,
                                   proc_count));
    }
    requireData(at == payload.size(),
                "readBinaryTrace: trailing bytes in chunk payload");
    pos += payload.size();
    return true;
}

/** v2 body: CRC-guarded chunks (salvageable per chunk). */
Trace
readBodyV2(std::string_view buf, const Header &header,
           const TraceReadOptions &ropts)
{
    Trace trace(header.proc_count);
    trace.reserve(static_cast<std::size_t>(
        std::min(header.run_count, kReserveCap)));
    std::size_t pos = header.body;
    std::uint64_t chunks = 0;
    std::uint64_t got = 0;
    bool bad_chunk = false;
    std::vector<TraceEvent> chunk;
    std::string flipped;
    for (;;) {
        try {
            if (!readChunkV2(buf, pos, header.proc_count, chunk,
                             flipped))
                break;
        } catch (const TopoError &) {
            if (!ropts.recover)
                throw;
            bad_chunk = true;
            break;
        }
        for (const TraceEvent &ev : chunk)
            trace.append(ev.proc, ev.offset, ev.length);
        got += chunk.size();
        ++chunks;
    }
    const std::uint64_t run_count = header.run_count;
    if (got != run_count || bad_chunk) {
        if (!ropts.recover) {
            failCorrupt("readBinaryTrace: trace promises " +
                        std::to_string(run_count) + " records, found " +
                        std::to_string(got));
        }
        const std::uint64_t dropped =
            run_count > got ? run_count - got : 0;
        MetricsRegistry &metrics = MetricsRegistry::current();
        metrics.counter("trace.recovered_chunks").add(chunks);
        metrics.counter("trace.dropped_records").add(dropped);
        logWarn("trace", "salvaged corrupt/truncated trace",
                {{"chunks_recovered", chunks},
                 {"records_recovered", got},
                 {"records_dropped", dropped}});
        if (ropts.report != nullptr) {
            ropts.report->recovered = true;
            ropts.report->records_dropped = dropped;
        }
    }
    if (ropts.report != nullptr) {
        ropts.report->chunks_recovered = chunks;
        ropts.report->records_recovered = got;
    }
    return trace;
}

/** Every byte left in @p is. */
std::string
readAll(std::istream &is)
{
    std::ostringstream bytes;
    bytes << is.rdbuf();
    return std::move(bytes).str();
}

/**
 * A trace file's bytes: the file mapped read-only when it maps, else
 * read into memory (a pipe, a non-regular file, a failed map, or a
 * platform without mmap).
 */
class FileBytes
{
  public:
    FileBytes(const std::string &path, const char *loader)
        : map_(MappedFile::tryMap(path))
    {
        if (map_.has_value())
            return;
        std::ifstream is(path, std::ios::binary);
        require(is.good(),
                std::string(loader) + ": cannot open '" + path + "'");
        read_ = readAll(is);
    }

    std::string_view
    view() const
    {
        return map_.has_value()
                   ? std::string_view(map_->data(), map_->size())
                   : std::string_view(read_);
    }

    /** Decode as a binary trace, counting a mapped load. */
    Trace
    decode(const TraceReadOptions &ropts) const
    {
        if (map_.has_value())
            MetricsRegistry::current().counter("trace.mmap_loads").add();
        return decodeBinaryTrace(view().data(), view().size(), ropts);
    }

  private:
    std::optional<MappedFile> map_;
    std::string read_;
};

/** Read-only streambuf over bytes it does not own. */
class ViewBuf : public std::streambuf
{
  public:
    explicit ViewBuf(std::string_view bytes)
    {
        // Reading never writes to the get area, so mapped memory is
        // safe behind it.
        char *begin = const_cast<char *>(bytes.data());
        setg(begin, begin, begin + bytes.size());
    }
};

} // namespace

void
writeBinaryTrace(std::ostream &os, const Trace &trace,
                 const TraceWriteOptions &wopts)
{
    const std::size_t per_chunk =
        std::max<std::size_t>(1, wopts.records_per_chunk);
    std::string frame(kMagic);
    putVarint(frame, kVersionV2);
    putVarint(frame, trace.procCount());
    putVarint(frame, trace.size());
    os.write(frame.data(), static_cast<std::streamsize>(frame.size()));
    const std::vector<TraceEvent> &events = trace.events();
    std::string payload;
    for (std::size_t begin = 0; begin < events.size();
         begin += per_chunk) {
        const std::size_t end =
            std::min(events.size(), begin + per_chunk);
        payload.clear();
        std::int64_t prev_proc = 0;
        for (std::size_t i = begin; i < end; ++i) {
            const TraceEvent &ev = events[i];
            putVarint(payload,
                      zigzag(static_cast<std::int64_t>(ev.proc) -
                             prev_proc));
            putVarint(payload, ev.offset);
            putVarint(payload, ev.length);
            prev_proc = static_cast<std::int64_t>(ev.proc);
        }
        frame.clear();
        putVarint(frame, end - begin);
        putVarint(frame, payload.size());
        const std::uint32_t crc = crc32(payload);
        for (int i = 0; i < 4; ++i)
            frame.push_back(static_cast<char>((crc >> (8 * i)) & 0xFF));
        os.write(frame.data(), static_cast<std::streamsize>(frame.size()));
        os.write(payload.data(),
                 static_cast<std::streamsize>(payload.size()));
    }
    require(os.good(), "writeBinaryTrace: stream failure");
}

Trace
readBinaryTrace(std::istream &is, const TraceReadOptions &ropts)
{
    const std::string bytes = readAll(is);
    return decodeBinaryTrace(bytes.data(), bytes.size(), ropts);
}

Trace
decodeBinaryTrace(const char *data, std::size_t size,
                  const TraceReadOptions &ropts)
{
    faultMaybeThrowIo("trace_binary.header");
    const std::string_view buf(data, size);
    const Header header = readHeader(buf, "readBinaryTrace");
    if (header.version == kVersionV1)
        return readBodyV1(buf, header, ropts);
    return readBodyV2(buf, header, ropts);
}

void
saveBinaryTrace(const std::string &path, const Trace &trace,
                const TraceWriteOptions &wopts)
{
    std::ofstream os(path, std::ios::binary);
    require(os.good(), "saveBinaryTrace: cannot open '" + path + "'");
    writeBinaryTrace(os, trace, wopts);
    require(os.good(), "saveBinaryTrace: write failed for '" + path +
                           "'");
}

Trace
loadBinaryTrace(const std::string &path, const TraceReadOptions &ropts)
{
    return FileBytes(path, "loadBinaryTrace").decode(ropts);
}

Trace
loadAnyTrace(const std::string &path, const TraceReadOptions &ropts)
{
    const FileBytes file(path, "loadAnyTrace");
    const std::string_view bytes = file.view();
    requireData(bytes.size() >= 4, "loadAnyTrace: file too short",
                path);
    if (bytes.starts_with(kMagic))
        return file.decode(ropts);
    ViewBuf text(bytes);
    std::istream is(&text);
    return readTrace(is, ropts);
}

std::vector<ChunkExtent>
scanBinaryTraceChunks(const std::string &bytes)
{
    const Header header = readHeader(bytes, "scanBinaryTraceChunks");
    requireData(header.version == kVersionV2,
                "scanBinaryTraceChunks: not a v2 trace");
    std::size_t pos = header.body;
    std::vector<ChunkExtent> extents;
    while (pos < bytes.size()) {
        ChunkExtent extent;
        extent.begin = pos;
        extent.records = getVarint(bytes, pos, "chunk header");
        const std::uint64_t payload_bytes =
            getVarint(bytes, pos, "chunk header");
        requireData(bytes.size() - pos >= 4 &&
                        payload_bytes <= bytes.size() - pos - 4,
                    "scanBinaryTraceChunks: truncated chunk");
        pos += 4 + static_cast<std::size_t>(payload_bytes);
        extent.end = pos;
        extents.push_back(extent);
    }
    return extents;
}

} // namespace topo
