/**
 * @file
 * Binary codec of the persistent profile store (DESIGN.md §12).
 *
 * Three on-disk artefacts share the little-endian, CRC-32-guarded
 * framing of the checkpoint format (topo/resilience/framing.hh):
 *
 *   store.meta      "TOPM" u32 crc u64 size payload
 *                   payload: version, store_id, config (cache
 *                   geometry, chunk size, Q budget, pair/popularity
 *                   knobs, the embedded program inventory)
 *
 *   snapshot-<g%2>.tps
 *                   "TOPS" u32 crc u64 size payload
 *                   payload: version, store_id, generation,
 *                   applied_seq, serialized StoredProfile
 *
 *   journal.tpj     "TOPJ" u32 version u64 store_id, then records:
 *                   u32 payload_len, u32 crc32(payload), payload
 *                   payload: u64 seq, u8 kind, body; a kShard body
 *                   is a ShardInfo and the TraceProfile body that a
 *                   snapshot writes after its shard list
 *
 * Every weight is serialized as the raw IEEE-754 bit pattern, so a
 * round trip is bit-exact and "reopened store == in-memory fold of
 * the same shards" holds to the last ulp (the crash-matrix test's
 * invariant). serializeProfile() is the canonical form used both for
 * snapshots and for state comparison in tests.
 */

#ifndef TOPO_STORE_STORE_CODEC_HH
#define TOPO_STORE_STORE_CODEC_HH

#include <cstdint>
#include <string>
#include <vector>

#include "topo/cache/cache_config.hh"
#include "topo/profile/trace_profile.hh"
#include "topo/program/program.hh"
#include "topo/resilience/framing.hh"

namespace topo
{

/** Immutable store configuration, fixed at `topo_profile init`. */
struct StoreConfig
{
    /** Procedure inventory the profiles are built against. */
    Program program{"store"};
    /** Cache geometry placements target. */
    CacheConfig cache = CacheConfig::paperDefault();
    /** Chunk size of TRG_place. */
    std::uint32_t chunk_bytes = 256;
    /** Q byte budget of the TRG walks (q_factor x cache size). */
    std::uint64_t byte_budget = 2 * 8 * 1024;
    /** Accumulate the Section 6 pair database too. */
    bool build_pairs = false;
    /** Pair-window cap when build_pairs is set. */
    std::uint32_t pair_window = 16;
    /** Popularity coverage used at placement time. */
    double coverage = 0.999;
};

/** Provenance of one ingested shard. */
struct ShardInfo
{
    /** Display label (defaults to the trace path's basename). */
    std::string label;
    /** Number of trace runs the shard contributed. */
    std::uint64_t events = 0;
    /** Journal sequence number that ingested it. */
    std::uint64_t seq = 0;
};

/**
 * The store's logical state: the standing profile every ingest merges
 * into (the sum of the shards' TraceProfiles), plus the last accepted
 * placement and its TRG baseline (the drift reference).
 */
struct StoredProfile : TraceProfile
{
    /** Shards folded in so far, in ingest order. */
    std::vector<ShardInfo> shards;
    /** TRG_select at the last accepted placement (drift baseline). */
    WeightedGraph baseline_select;
    /** Last accepted layout addresses (empty = never placed). */
    std::vector<std::uint64_t> layout_addresses;
    /** Algorithm that produced the stored layout. */
    std::string layout_algorithm;
};

/** One shard's contribution, the body of a kShard journal record. */
struct ShardDelta : TraceProfile
{
    ShardInfo info;
};

/** Journal record kinds. */
enum class StoreRecordKind : std::uint8_t
{
    /** Merge a ShardDelta into the standing profile. */
    kShard = 1,
    /** Accept a placement: set layout + drift baseline. */
    kPlace = 2,
};

/** Decoded journal record. */
struct StoreRecord
{
    std::uint64_t seq = 0;
    StoreRecordKind kind = StoreRecordKind::kShard;
    /** kShard body. */
    ShardDelta shard;
    /** kPlace body. */
    std::vector<std::uint64_t> layout_addresses;
    std::string layout_algorithm;
};

/** Byte extent of one journal record (topo_corrupt --target=store). */
struct StoreRecordExtent
{
    std::size_t begin = 0;
    std::size_t end = 0;
    std::uint64_t seq = 0;
};

/** Serialize the meta payload (config + identity). */
std::string serializeMeta(std::uint64_t store_id,
                          const StoreConfig &config);
/** Decode a meta payload; fills @p store_id. */
StoreConfig deserializeMeta(const std::string &payload,
                            std::uint64_t &store_id);

/** Canonical profile bytes (snapshot body; test state comparison). */
std::string serializeProfile(const StoredProfile &profile);
/** Decode profile bytes produced by serializeProfile. */
StoredProfile deserializeProfile(const std::string &payload,
                                 const std::string &context);

/** Serialize a kShard record body. */
std::string serializeShardDelta(const ShardDelta &delta);

/** Serialize one journal record (seq + kind + body, framed). */
std::string frameRecord(std::uint64_t seq, StoreRecordKind kind,
                        const std::string &body);

/** Journal file header bytes for a store id. */
std::string journalHeader(std::uint64_t store_id);
/** Size of the journal header in bytes. */
std::size_t journalHeaderSize();

/**
 * Result of scanning a journal image: the records of the valid
 * prefix, where that prefix ends, and how much was discarded. A torn
 * or corrupt record ends the scan — the suffix from it on is dropped
 * (the write-ahead "valid prefix" rule), never partially applied.
 */
struct JournalScan
{
    std::vector<StoreRecord> records;
    std::vector<StoreRecordExtent> extents;
    /** One past the last valid record (>= header size). */
    std::size_t valid_end = 0;
    /** Bytes dropped after valid_end. */
    std::size_t dropped_bytes = 0;
    /** Torn/corrupt records dropped (0 or 1 + unreachable suffix). */
    std::uint64_t dropped_records = 0;
    /** Store id from the header. */
    std::uint64_t store_id = 0;
};

/**
 * Scan a journal image. Throws a corrupt-input TopoError only when
 * the *header* is unusable; damaged records merely end the valid
 * prefix. Sequence numbers must be strictly increasing by 1; a gap
 * (e.g. an excised record) also ends the prefix.
 */
JournalScan scanJournal(const std::string &bytes,
                        const std::string &context);

} // namespace topo

#endif // TOPO_STORE_STORE_CODEC_HH
