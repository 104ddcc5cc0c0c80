#include "topo/store/profile_store.hh"

#include <cerrno>
#include <cmath>
#include <cstring>
#include <limits>

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include "topo/obs/log.hh"
#include "topo/obs/metrics.hh"
#include "topo/obs/phase_timer.hh"
#include "topo/placement/decision_log.hh"
#include "topo/placement/placement_table.hh"
#include "topo/placement/popularity.hh"
#include "topo/profile/chunk_map.hh"
#include "topo/sampling/sampled_profile.hh"
#include "topo/resilience/checkpoint.hh"
#include "topo/resilience/crc32.hh"
#include "topo/resilience/durable_io.hh"
#include "topo/resilience/fault.hh"
#include "topo/trace/trace_stats.hh"
#include "topo/util/error.hh"

namespace topo
{

namespace
{

constexpr char kSnapshotMagic[4] = {'T', 'O', 'P', 'S'};
constexpr char kMetaMagic[4] = {'T', 'O', 'P', 'M'};
constexpr std::uint64_t kSnapshotVersion = 1;

Counter &
storeCounter(const char *name)
{
    return MetricsRegistry::global().counter(name);
}

bool
fileExists(const std::string &path)
{
    return ::access(path.c_str(), F_OK) == 0;
}

/** One parsed snapshot slot. */
struct SnapshotImage
{
    bool present = false;
    bool valid = false;
    std::uint64_t generation = 0;
    std::uint64_t applied_seq = 0;
    StoredProfile profile;
};

std::string
snapshotPayload(std::uint64_t store_id, std::uint64_t generation,
                std::uint64_t applied_seq,
                const StoredProfile &profile)
{
    std::string payload;
    putU64(payload, kSnapshotVersion);
    putU64(payload, store_id);
    putU64(payload, generation);
    putU64(payload, applied_seq);
    putString(payload, serializeProfile(profile));
    return payload;
}

SnapshotImage
parseSnapshot(const std::string &path, std::uint64_t store_id)
{
    SnapshotImage image;
    if (!fileExists(path))
        return image;
    image.present = true;
    try {
        const std::string bytes =
            readFileBytes(path, "store.snapshot.read");
        const std::string payload =
            unframeFile(kSnapshotMagic, bytes, path);
        Reader in(payload, path);
        const std::uint64_t version = in.u64();
        requireData(version == kSnapshotVersion,
                    "unsupported snapshot version " +
                        std::to_string(version),
                    path);
        const std::uint64_t sid = in.u64();
        requireData(sid == store_id, "snapshot store id mismatch",
                    path);
        image.generation = in.u64();
        image.applied_seq = in.u64();
        const std::string profile_bytes = in.str();
        in.expectEnd();
        image.profile = deserializeProfile(profile_bytes, path);
        image.valid = true;
    } catch (const TopoError &e) {
        logWarn("store", "unusable snapshot",
                {{"file", path}, {"error", e.what()}});
    }
    return image;
}

std::vector<std::uint64_t>
addressesFromLayout(const Layout &layout)
{
    std::vector<std::uint64_t> addresses(layout.procCount());
    for (std::size_t i = 0; i < layout.procCount(); ++i)
        addresses[i] = layout.address(static_cast<ProcId>(i));
    return addresses;
}

} // namespace

Layout
layoutFromAddresses(const std::vector<std::uint64_t> &addresses)
{
    Layout layout(addresses.size());
    for (std::size_t i = 0; i < addresses.size(); ++i)
        layout.setAddress(static_cast<ProcId>(i), addresses[i]);
    return layout;
}

StoredProfile
emptyProfile(const StoreConfig &config)
{
    StoredProfile profile;
    const std::size_t procs = config.program.procCount();
    profile.stats.run_count.assign(procs, 0);
    profile.stats.bytes_fetched.assign(procs, 0);
    profile.wcg = WeightedGraph(procs);
    profile.trg_select = WeightedGraph(procs);
    profile.trg_place = WeightedGraph(
        ChunkMap(config.program, config.chunk_bytes).chunkCount());
    profile.baseline_select = WeightedGraph(procs);
    return profile;
}

ShardDelta
buildShardDelta(const StoreConfig &config, const std::string &label,
                const Trace &trace, const SamplingOptions &sampling)
{
    require(trace.procCount() == config.program.procCount(),
            "shard trace and store program disagree on the procedure "
            "count");
    trace.validate(config.program);
    const ChunkMap chunks(config.program, config.chunk_bytes);
    TrgBuildOptions trg_options;
    trg_options.byte_budget = config.byte_budget;
    const PairBuildOptions pair_options{config.byte_budget,
                                        config.pair_window, nullptr};
    return ShardDelta{
        buildTraceProfile(config.program, chunks, trace,
                          computeTraceStats(config.program, trace),
                          trg_options,
                          config.build_pairs ? &pair_options : nullptr,
                          sampling, config.cache.line_bytes),
        ShardInfo{label, trace.size(), 0}};
}

void
applyShardDelta(StoredProfile &profile, const ShardDelta &delta)
{
    profile.merge(delta);
    profile.shards.push_back(delta.info);
}

double
trgDrift(const WeightedGraph &cur, const WeightedGraph &base)
{
    const std::vector<WeightedGraph::Edge> ce = cur.edges();
    const std::vector<WeightedGraph::Edge> be = base.edges();
    double delta_sum = 0.0;
    double base_sum = 0.0;
    std::size_t i = 0;
    std::size_t j = 0;
    auto keyOf = [](const WeightedGraph::Edge &e) {
        return (static_cast<std::uint64_t>(e.u) << 32) | e.v;
    };
    while (i < ce.size() || j < be.size()) {
        if (j == be.size() ||
            (i < ce.size() && keyOf(ce[i]) < keyOf(be[j]))) {
            delta_sum += std::abs(ce[i].weight);
            ++i;
        } else if (i == ce.size() || keyOf(be[j]) < keyOf(ce[i])) {
            delta_sum += std::abs(be[j].weight);
            base_sum += be[j].weight;
            ++j;
        } else {
            delta_sum += std::abs(ce[i].weight - be[j].weight);
            base_sum += be[j].weight;
            ++i;
            ++j;
        }
    }
    if (base_sum <= 0.0) {
        return delta_sum > 0.0
                   ? std::numeric_limits<double>::infinity()
                   : 0.0;
    }
    return delta_sum / base_sum;
}

StorePlaceResult
placeProfile(const StoreConfig &config, const StoredProfile &profile,
             const std::string &algorithm, DecisionLog *decisions)
{
    PopularityOptions popts;
    popts.coverage = config.coverage;
    const ChunkMap chunks(config.program, config.chunk_bytes);
    PlacementContext ctx = profileContext(
        config.program, config.cache, chunks, profile,
        selectPopular(config.program, profile.stats, popts).mask);
    if (decisions) {
        decisions->setAlgorithm(algorithm);
        decisions->setCache(config.cache);
        ctx.decisions = decisions;
    }

    StorePlaceResult result;
    result.layout = placementEntry(algorithm).algorithm.place(ctx);
    result.layout.validate(config.program, config.cache.line_bytes);
    result.algorithm = algorithm;
    result.placed = true;
    return result;
}

std::string
ProfileStore::snapshotPath(std::uint64_t generation) const
{
    return dir_ + "/snapshot-" + std::to_string(generation % 2) +
           ".tps";
}

std::string
ProfileStore::journalPath() const
{
    return dir_ + "/journal.tpj";
}

std::string
ProfileStore::metaPath() const
{
    return dir_ + "/store.meta";
}

void
ProfileStore::writeSnapshot(std::uint64_t generation)
{
    const std::string payload = snapshotPayload(
        store_id_, generation, applied_seq_, profile_);
    atomicReplace(snapshotPath(generation),
                  frameFile(kSnapshotMagic, payload),
                  "store.snapshot");
}

void
ProfileStore::init(const std::string &dir, const StoreConfig &config)
{
    config.cache.validate();
    require(config.program.procCount() > 0,
            "store init: the program has no procedures");
    if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
        fail("cannot create store directory '" + dir +
             "': " + std::strerror(errno));
    }
    ProfileStore store;
    store.dir_ = dir;
    require(!fileExists(store.metaPath()),
            "'" + dir + "' already holds a profile store");

    // Identity: a fingerprint of the configuration. Deterministic on
    // purpose — reproducible runs build bit-identical stores.
    const std::string meta_payload = serializeMeta(0, config);
    store.store_id_ = fingerprintMix(crc32(meta_payload),
                                     meta_payload.size());
    store.config_ = config;
    store.profile_ = emptyProfile(config);

    // Snapshot and journal first, meta last: the meta file's presence
    // marks a completed init, so a crash mid-init never leaves a
    // half-built store that open() would accept.
    store.writeSnapshot(0);
    atomicReplace(store.journalPath(),
                  journalHeader(store.store_id_),
                  "store.journal.create");
    atomicReplace(store.metaPath(),
                  frameFile(kMetaMagic,
                            serializeMeta(store.store_id_, config)),
                  "store.meta");
    logInfo("store", "initialized",
            {{"dir", dir},
             {"procs", config.program.procCount()}});
}

ProfileStore
ProfileStore::open(const std::string &dir)
{
    PhaseTimer timer("store.open");
    ProfileStore store;
    store.dir_ = dir;
    require(fileExists(store.metaPath()),
            "'" + dir + "' is not a profile store (no store.meta)");
    const std::string meta_bytes =
        readFileBytes(store.metaPath(), "store.meta.read");
    const std::string meta_payload =
        unframeFile(kMetaMagic, meta_bytes, store.metaPath());
    store.config_ = deserializeMeta(meta_payload, store.store_id_);

    // Newest valid snapshot wins; the older generation is the salvage
    // fallback when the newest is torn or corrupt.
    const SnapshotImage slot0 =
        parseSnapshot(store.snapshotPath(0), store.store_id_);
    const SnapshotImage slot1 =
        parseSnapshot(store.snapshotPath(1), store.store_id_);
    const SnapshotImage *best = nullptr;
    const SnapshotImage *other = nullptr;
    for (const SnapshotImage *slot : {&slot0, &slot1}) {
        if (!slot->valid)
            continue;
        if (best == nullptr || slot->generation > best->generation) {
            other = best;
            best = slot;
        } else {
            other = slot;
        }
    }
    if (best == nullptr) {
        failCorrupt("no usable profile snapshot (both generations "
                    "damaged)",
                    dir);
    }
    const bool salvaged =
        (slot0.present && !slot0.valid) ||
        (slot1.present && !slot1.valid);
    if (salvaged) {
        storeCounter("store.snapshot_salvage").add();
        logWarn("store", "salvaged older snapshot generation",
                {{"dir", dir}, {"generation", best->generation}});
    }
    store.profile_ = best->profile;
    store.generation_ = best->generation;
    store.snapshot_applied_seq_ = best->applied_seq;
    store.older_applied_seq_ =
        other != nullptr ? other->applied_seq : 0;
    store.applied_seq_ = best->applied_seq;
    store.open_stats_.snapshot_generation = best->generation;
    store.open_stats_.salvaged = salvaged;

    // Replay the journal's valid prefix on top of the snapshot.
    const std::string journal_bytes =
        readFileBytes(store.journalPath(), "store.journal.read");
    const JournalScan scan =
        scanJournal(journal_bytes, store.journalPath());
    requireData(scan.store_id == store.store_id_,
                "journal store id mismatch", store.journalPath());
    if (scan.dropped_bytes > 0) {
        storeCounter("store.journal_dropped_records")
            .add(scan.dropped_records);
        logWarn("store", "dropped torn journal tail",
                {{"dir", dir},
                 {"bytes", scan.dropped_bytes},
                 {"valid_end", scan.valid_end}});
    }
    for (const StoreRecord &record : scan.records) {
        if (record.seq <= store.applied_seq_)
            continue; // already folded into the snapshot
        requireData(record.seq == store.applied_seq_ + 1,
                    "journal is missing records before seq " +
                        std::to_string(record.seq),
                    store.journalPath());
        if (record.kind == StoreRecordKind::kShard)
            applyShardDelta(store.profile_, record.shard);
        else
            store.applyPlace(record.layout_addresses,
                             record.layout_algorithm);
        store.applied_seq_ = record.seq;
        ++store.open_stats_.replayed_records;
    }
    store.open_stats_.dropped_bytes = scan.dropped_bytes;
    store.open_stats_.dropped_records = scan.dropped_records;

    // A torn tail is permanent garbage after the valid prefix; trim
    // it now so future appends extend the valid prefix instead of
    // hiding behind the damage.
    if (scan.dropped_bytes > 0) {
        Fd fd(::open(store.journalPath().c_str(), O_WRONLY));
        require(fd.valid(), "cannot reopen journal for trim");
        truncateFd(fd, scan.valid_end, "store.journal.trim");
    }
    return store;
}

void
ProfileStore::appendRecord(StoreRecordKind kind,
                           const std::string &body)
{
    const std::uint64_t seq = applied_seq_ + 1;
    const std::string record = frameRecord(seq, kind, body);
    Fd fd = openAppend(journalPath());
    // The record is written in two halves with a crash point between
    // them so the crash-matrix test can manufacture a torn record on
    // the real append path; without an installed crash point the two
    // writes are equivalent to one.
    const std::size_t half = record.size() / 2;
    writeAll(fd, record.data(), half, "store.journal.append");
    faultMaybeCrash("store.journal.mid_record");
    writeAll(fd, record.data() + half, record.size() - half,
             "store.journal.append");
    faultMaybeCrash("store.journal.pre_fsync");
    fsyncFd(fd, "store.journal.fsync");
    faultMaybeCrash("store.journal.post_fsync");
    storeCounter("store.journal_appends").add();
}

void
ProfileStore::applyPlace(const std::vector<std::uint64_t> &addresses,
                         const std::string &algorithm)
{
    profile_.layout_addresses = addresses;
    profile_.layout_algorithm = algorithm;
    profile_.baseline_select = profile_.trg_select;
}

void
ProfileStore::ingest(const ShardDelta &delta)
{
    PhaseTimer timer("store.ingest");
    ShardDelta numbered = delta;
    numbered.info.seq = applied_seq_ + 1;
    appendRecord(StoreRecordKind::kShard,
                 serializeShardDelta(numbered));
    // The record is durable; applying it cannot be lost any more.
    applyShardDelta(profile_, numbered);
    ++applied_seq_;
    storeCounter("store.ingests").add();
    logInfo("store", "ingested shard",
            {{"label", numbered.info.label},
             {"seq", numbered.info.seq},
             {"events", numbered.info.events}});
}

double
ProfileStore::drift() const
{
    return trgDrift(profile_.trg_select, profile_.baseline_select);
}

StorePlaceResult
ProfileStore::place(const std::string &algorithm, double threshold,
                    bool force, DecisionLog *decisions)
{
    PhaseTimer timer("store.place");
    placementEntry(algorithm); // reject an unknown name before any work
    const double current_drift = drift();
    const bool never_placed = profile_.layout_algorithm.empty();
    if (!force && !never_placed && current_drift < threshold) {
        StorePlaceResult result;
        result.drift = current_drift;
        result.placed = false;
        result.layout =
            layoutFromAddresses(profile_.layout_addresses);
        result.algorithm = profile_.layout_algorithm;
        logInfo("store", "placement retained",
                {{"drift", current_drift},
                 {"threshold", threshold}});
        return result;
    }
    StorePlaceResult result =
        placeProfile(config_, profile_, algorithm, decisions);
    result.drift = current_drift;
    const std::vector<std::uint64_t> addresses =
        addressesFromLayout(result.layout);
    std::string body;
    putString(body, algorithm);
    putU64(body, addresses.size());
    for (std::uint64_t a : addresses)
        putU64(body, a);
    appendRecord(StoreRecordKind::kPlace, body);
    applyPlace(addresses, algorithm);
    ++applied_seq_;
    logInfo("store", "placement recomputed",
            {{"algorithm", algorithm},
             {"drift", current_drift},
             {"threshold", threshold}});
    return result;
}

void
ProfileStore::compact()
{
    PhaseTimer timer("store.compact");
    const std::uint64_t new_generation = generation_ + 1;
    writeSnapshot(new_generation);

    // Rewrite the journal keeping every record newer than the OLDER
    // retained snapshot (the one we just demoted), so a future
    // salvage to that generation can still replay to the present.
    const std::uint64_t keep_after = snapshot_applied_seq_;
    const std::string journal_bytes =
        readFileBytes(journalPath(), "store.journal.read");
    const JournalScan scan = scanJournal(journal_bytes, journalPath());
    std::string rewritten = journalHeader(store_id_);
    for (const StoreRecordExtent &extent : scan.extents) {
        if (extent.seq > keep_after) {
            rewritten.append(journal_bytes, extent.begin,
                             extent.end - extent.begin);
        }
    }
    faultMaybeCrash("store.compact.pre_journal");
    atomicReplace(journalPath(), rewritten, "store.compact");

    older_applied_seq_ = snapshot_applied_seq_;
    snapshot_applied_seq_ = applied_seq_;
    generation_ = new_generation;
    storeCounter("store.compactions").add();
    logInfo("store", "compacted",
            {{"generation", new_generation},
             {"applied_seq", applied_seq_},
             {"journal_bytes", rewritten.size()}});
}

} // namespace topo
