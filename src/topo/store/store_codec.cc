#include "topo/store/store_codec.hh"

#include "topo/resilience/crc32.hh"
#include "topo/util/error.hh"

namespace topo
{

namespace
{

/** Ceiling on one journal record payload (256 MiB). */
constexpr std::uint32_t kMaxRecordLen = 1u << 28;

constexpr std::uint64_t kMetaVersion = 1;
constexpr std::uint64_t kProfileVersion = 1;
constexpr std::uint64_t kJournalVersion = 1;

constexpr char kJournalMagic[4] = {'T', 'O', 'P', 'J'};

void
putGraph(std::string &out, const WeightedGraph &graph)
{
    putU64(out, graph.nodeCount());
    const std::vector<WeightedGraph::Edge> edges = graph.edges();
    putU64(out, edges.size());
    for (const WeightedGraph::Edge &e : edges) {
        putU32(out, e.u);
        putU32(out, e.v);
        putF64(out, e.weight);
    }
}

WeightedGraph
getGraph(Reader &in)
{
    const std::uint64_t nodes = in.u64();
    requireData(nodes <= kMaxFieldLen, "graph node count implausible",
                "store codec");
    WeightedGraph graph(static_cast<std::size_t>(nodes));
    const std::uint64_t edges = in.u64();
    requireData(edges <= kMaxFieldLen, "graph edge count implausible",
                "store codec");
    for (std::uint64_t i = 0; i < edges; ++i) {
        const BlockId u = in.u32();
        const BlockId v = in.u32();
        const double w = in.f64();
        graph.addWeight(u, v, w);
    }
    return graph;
}

void
putPairs(std::string &out, const PairDatabase &pairs)
{
    const std::vector<PairDatabase::Entry> entries = pairs.entries();
    putU64(out, entries.size());
    for (const PairDatabase::Entry &e : entries) {
        putU32(out, e.p);
        putU32(out, e.r);
        putU32(out, e.s);
        putF64(out, e.weight);
    }
}

PairDatabase
getPairs(Reader &in)
{
    PairDatabase pairs;
    const std::uint64_t count = in.u64();
    requireData(count <= kMaxFieldLen, "pair count implausible",
                "store codec");
    for (std::uint64_t i = 0; i < count; ++i) {
        const BlockId p = in.u32();
        const BlockId r = in.u32();
        const BlockId s = in.u32();
        const double w = in.f64();
        pairs.add(p, r, s, w);
    }
    return pairs;
}

void
putU64Vec(std::string &out, const std::vector<std::uint64_t> &values)
{
    putU64(out, values.size());
    for (std::uint64_t v : values)
        putU64(out, v);
}

std::vector<std::uint64_t>
getU64Vec(Reader &in)
{
    const std::uint64_t count = in.u64();
    requireData(count <= kMaxFieldLen, "vector length implausible",
                "store codec");
    std::vector<std::uint64_t> values(
        static_cast<std::size_t>(count));
    for (std::uint64_t i = 0; i < count; ++i)
        values[static_cast<std::size_t>(i)] = in.u64();
    return values;
}

/** The TraceProfile body shared by kShard records and snapshots. */
void
putProfileBody(std::string &out, const TraceProfile &profile)
{
    putU64Vec(out, profile.stats.run_count);
    putU64Vec(out, profile.stats.bytes_fetched);
    putU64(out, profile.stats.total_runs);
    putU64(out, profile.stats.total_bytes);
    putGraph(out, profile.wcg);
    putGraph(out, profile.trg_select);
    putGraph(out, profile.trg_place);
    putPairs(out, profile.pairs);
    putF64(out, profile.queue_procs_sum);
    putU64(out, profile.proc_steps);
    putU64(out, profile.proc_evictions);
    putU64(out, profile.chunk_evictions);
}

void
getProfileBody(Reader &in, TraceProfile &profile)
{
    profile.stats.run_count = getU64Vec(in);
    profile.stats.bytes_fetched = getU64Vec(in);
    profile.stats.total_runs = in.u64();
    profile.stats.total_bytes = in.u64();
    profile.wcg = getGraph(in);
    profile.trg_select = getGraph(in);
    profile.trg_place = getGraph(in);
    profile.pairs = getPairs(in);
    profile.queue_procs_sum = in.f64();
    profile.proc_steps = in.u64();
    profile.proc_evictions = in.u64();
    profile.chunk_evictions = in.u64();
}

void
putShardInfo(std::string &out, const ShardInfo &info)
{
    putString(out, info.label);
    putU64(out, info.events);
    putU64(out, info.seq);
}

ShardInfo
getShardInfo(Reader &in)
{
    ShardInfo info;
    info.label = in.str();
    info.events = in.u64();
    info.seq = in.u64();
    return info;
}

} // namespace

std::string
serializeMeta(std::uint64_t store_id, const StoreConfig &config)
{
    std::string out;
    putU64(out, kMetaVersion);
    putU64(out, store_id);
    putU32(out, config.cache.size_bytes);
    putU32(out, config.cache.line_bytes);
    putU32(out, config.cache.associativity);
    putU32(out, config.chunk_bytes);
    putU64(out, config.byte_budget);
    putU32(out, config.build_pairs ? 1 : 0);
    putU32(out, config.pair_window);
    putF64(out, config.coverage);
    putString(out, config.program.name());
    putU64(out, config.program.procCount());
    for (const Procedure &proc : config.program.procs()) {
        putString(out, proc.name);
        putU32(out, proc.size_bytes);
    }
    return out;
}

StoreConfig
deserializeMeta(const std::string &payload, std::uint64_t &store_id)
{
    Reader in(payload, "store meta");
    const std::uint64_t version = in.u64();
    if (version != kMetaVersion)
        failCorrupt("unsupported store meta version " +
                        std::to_string(version),
                    "store meta");
    store_id = in.u64();
    StoreConfig config;
    config.cache.size_bytes = in.u32();
    config.cache.line_bytes = in.u32();
    config.cache.associativity = in.u32();
    config.chunk_bytes = in.u32();
    config.byte_budget = in.u64();
    config.build_pairs = in.u32() != 0;
    config.pair_window = in.u32();
    config.coverage = in.f64();
    const std::string program_name = in.str();
    Program program(program_name);
    const std::uint64_t procs = in.u64();
    requireData(procs <= kMaxFieldLen, "procedure count implausible",
                "store meta");
    for (std::uint64_t i = 0; i < procs; ++i) {
        const std::string name = in.str();
        const std::uint32_t size = in.u32();
        program.addProcedure(name, size);
    }
    in.expectEnd();
    config.program = std::move(program);
    config.cache.validate();
    return config;
}

std::string
serializeProfile(const StoredProfile &profile)
{
    std::string out;
    putU64(out, kProfileVersion);
    putU64(out, profile.shards.size());
    for (const ShardInfo &shard : profile.shards)
        putShardInfo(out, shard);
    putProfileBody(out, profile);
    putGraph(out, profile.baseline_select);
    putU64Vec(out, profile.layout_addresses);
    putString(out, profile.layout_algorithm);
    return out;
}

StoredProfile
deserializeProfile(const std::string &payload,
                   const std::string &context)
{
    Reader in(payload, context);
    const std::uint64_t version = in.u64();
    if (version != kProfileVersion)
        failCorrupt("unsupported profile version " + std::to_string(version),
                    context);
    StoredProfile profile;
    const std::uint64_t shards = in.u64();
    requireData(shards <= kMaxFieldLen, "shard count implausible", context);
    profile.shards.reserve(static_cast<std::size_t>(shards));
    for (std::uint64_t i = 0; i < shards; ++i)
        profile.shards.push_back(getShardInfo(in));
    getProfileBody(in, profile);
    profile.baseline_select = getGraph(in);
    profile.layout_addresses = getU64Vec(in);
    profile.layout_algorithm = in.str();
    in.expectEnd();
    return profile;
}

std::string
serializeShardDelta(const ShardDelta &delta)
{
    std::string out;
    putShardInfo(out, delta.info);
    putProfileBody(out, delta);
    return out;
}

std::string
frameRecord(std::uint64_t seq, StoreRecordKind kind,
            const std::string &body)
{
    std::string payload;
    payload.reserve(9 + body.size());
    putU64(payload, seq);
    payload.push_back(static_cast<char>(kind));
    payload += body;
    require(payload.size() <= kMaxRecordLen,
            "journal record too large");
    std::string record;
    record.reserve(8 + payload.size());
    putU32(record, static_cast<std::uint32_t>(payload.size()));
    putU32(record, crc32(payload));
    record += payload;
    return record;
}

std::string
journalHeader(std::uint64_t store_id)
{
    std::string header;
    header.append(kJournalMagic, 4);
    putU32(header, static_cast<std::uint32_t>(kJournalVersion));
    putU64(header, store_id);
    return header;
}

std::size_t
journalHeaderSize()
{
    return 16;
}

JournalScan
scanJournal(const std::string &bytes, const std::string &context)
{
    JournalScan scan;
    requireData(bytes.size() >= journalHeaderSize(),
                "journal header truncated", context);
    requireData(bytes.compare(0, 4, kJournalMagic, 4) == 0,
                "bad journal magic", context);
    Reader header(std::string_view(bytes).substr(4, 12), context);
    const std::uint32_t version = header.u32();
    if (version != kJournalVersion)
        failCorrupt("unsupported journal version " + std::to_string(version),
                    context);
    scan.store_id = header.u64();

    std::size_t pos = journalHeaderSize();
    scan.valid_end = pos;
    bool have_prev = false;
    std::uint64_t prev_seq = 0;
    while (pos < bytes.size()) {
        // Record header: u32 length + u32 crc.
        if (pos + 8 > bytes.size())
            break; // torn header
        Reader frame(std::string_view(bytes).substr(pos, 8), context);
        const std::uint32_t len = frame.u32();
        const std::uint32_t crc = frame.u32();
        if (len < 9 || len > kMaxRecordLen)
            break; // implausible framing (corrupt length)
        if (pos + 8 + len > bytes.size())
            break; // torn payload
        const std::string payload = bytes.substr(pos + 8, len);
        if (crc32(payload) != crc)
            break; // corrupt payload
        StoreRecord record;
        Reader in(payload, context + " record");
        record.seq = in.u64();
        const std::uint8_t kind = in.u8();
        if (have_prev && record.seq != prev_seq + 1)
            break; // sequence gap (an excised record)
        try {
            if (kind == static_cast<std::uint8_t>(
                            StoreRecordKind::kShard)) {
                record.kind = StoreRecordKind::kShard;
                record.shard.info = getShardInfo(in);
                getProfileBody(in, record.shard);
            } else if (kind == static_cast<std::uint8_t>(
                                   StoreRecordKind::kPlace)) {
                record.kind = StoreRecordKind::kPlace;
                record.layout_algorithm = in.str();
                record.layout_addresses = getU64Vec(in);
            } else {
                break; // unknown kind
            }
            in.expectEnd();
        } catch (const TopoError &) {
            break; // malformed body despite a matching CRC
        }
        have_prev = true;
        prev_seq = record.seq;
        scan.extents.push_back(
            StoreRecordExtent{pos, pos + 8 + len, record.seq});
        scan.records.push_back(std::move(record));
        pos += 8 + len;
        scan.valid_end = pos;
    }
    scan.dropped_bytes = bytes.size() - scan.valid_end;
    if (scan.dropped_bytes > 0)
        scan.dropped_records = 1; // at least the torn/corrupt one
    return scan;
}

} // namespace topo
