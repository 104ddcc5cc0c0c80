/**
 * @file
 * Crash-consistency matrix and durability tests of the persistent
 * profile store (DESIGN.md §12).
 *
 * The central invariant: for EVERY injected crash point, reopening the
 * store yields either the pre-operation or the post-operation profile
 * bit-exactly (serializeProfile comparison) — never a third state.
 * On top of that: reopened == fresh in-memory fold of the same shards,
 * placements from a reopened store equal placements from a fresh fold,
 * torn journal tails and corrupt snapshots are salvaged per the
 * valid-prefix / older-generation rules, and the write_short fault
 * leaves a store that retries cleanly.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "topo/eval/experiment.hh"
#include "topo/eval/report_gen.hh"
#include "topo/obs/json.hh"
#include "topo/obs/metrics.hh"
#include "topo/resilience/fault.hh"
#include "topo/store/profile_store.hh"
#include "topo/store/store_codec.hh"
#include "topo/util/error.hh"
#include "topo/workload/microsuite.hh"
#include "topo/workload/synthetic_program.hh"
#include "topo/workload/trace_synthesizer.hh"
#include "test_support.hh"

namespace topo
{
namespace
{

/** Store config over the phase_flip microsuite case. */
StoreConfig
microConfig()
{
    const MicroCase micro = microCase("phase_flip");
    StoreConfig config;
    config.program = micro.program;
    config.cache = micro.cache;
    config.chunk_bytes = 256;
    config.byte_budget = 2ULL * micro.cache.size_bytes;
    return config;
}

/** Split a case's trace into @p parts contiguous shard traces. */
std::vector<Trace>
splitTrace(const Trace &trace, std::size_t parts)
{
    std::vector<Trace> shards;
    const std::size_t per = trace.size() / parts;
    std::size_t next = 0;
    for (std::size_t p = 0; p < parts; ++p) {
        Trace shard(trace.procCount());
        const std::size_t end =
            p + 1 == parts ? trace.size() : next + per;
        for (; next < end; ++next) {
            const TraceEvent &e = trace.events()[next];
            shard.append(e.proc, e.offset, e.length);
        }
        shards.push_back(std::move(shard));
    }
    return shards;
}

/** The phase_flip trace split into three ingest shards. */
std::vector<ShardDelta>
microDeltas(const StoreConfig &config)
{
    const MicroCase micro = microCase("phase_flip");
    std::vector<ShardDelta> deltas;
    std::size_t index = 0;
    for (const Trace &shard : splitTrace(micro.trace, 3)) {
        deltas.push_back(buildShardDelta(config,
                                         "shard" + std::to_string(index++),
                                         shard, SamplingOptions{}));
    }
    return deltas;
}

/** In-memory fold of a delta prefix (the ground-truth state). */
std::string
foldedState(const StoreConfig &config,
            const std::vector<ShardDelta> &deltas, std::size_t count)
{
    StoredProfile profile = emptyProfile(config);
    for (std::size_t i = 0; i < count; ++i) {
        ShardDelta numbered = deltas[i];
        numbered.info.seq = i + 1;
        applyShardDelta(profile, numbered);
    }
    return serializeProfile(profile);
}

std::string
stateOf(const ProfileStore &store)
{
    return serializeProfile(store.profile());
}

std::string
reopenState(const std::string &dir)
{
    return stateOf(ProfileStore::open(dir));
}

class StoreTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        clearFaultPlan();
        clearCrashPoint();
    }
    void
    TearDown() override
    {
        clearFaultPlan();
        clearCrashPoint();
    }

    /** A path for a new store inside this test's own directory. */
    std::string
    tempDir(const std::string &name) const
    {
        return tmp_.file(name);
    }

  private:
    const TestTempDir tmp_;
};

TEST_F(StoreTest, ReopenEqualsFreshFoldBitExactly)
{
    const std::string dir = tempDir("reopen_fold");
    const StoreConfig config = microConfig();
    const std::vector<ShardDelta> deltas = microDeltas(config);
    ProfileStore::init(dir, config);
    {
        ProfileStore store = ProfileStore::open(dir);
        for (const ShardDelta &delta : deltas)
            store.ingest(delta);
        EXPECT_EQ(stateOf(store), foldedState(config, deltas, 3));
    }
    // A reopened store replays the journal to the identical bytes.
    EXPECT_EQ(reopenState(dir), foldedState(config, deltas, 3));

    // And survives a compaction round trip bit-exactly too.
    {
        ProfileStore store = ProfileStore::open(dir);
        store.compact();
        EXPECT_EQ(store.generation(), 1u);
    }
    EXPECT_EQ(reopenState(dir), foldedState(config, deltas, 3));
}

TEST_F(StoreTest, PlacementFromReopenedStoreEqualsFreshPlacement)
{
    const std::string dir = tempDir("place_equality");
    const StoreConfig config = microConfig();
    const std::vector<ShardDelta> deltas = microDeltas(config);
    ProfileStore::init(dir, config);
    {
        ProfileStore store = ProfileStore::open(dir);
        for (const ShardDelta &delta : deltas)
            store.ingest(delta);
    }

    // Fresh single-shot profile of the same shards.
    StoredProfile fresh = emptyProfile(config);
    for (std::size_t i = 0; i < deltas.size(); ++i) {
        ShardDelta numbered = deltas[i];
        numbered.info.seq = i + 1;
        applyShardDelta(fresh, numbered);
    }
    const StorePlaceResult expect =
        placeProfile(config, fresh, "gbsc");

    ProfileStore store = ProfileStore::open(dir);
    const StorePlaceResult got = store.place("gbsc", 0.0, true);
    ASSERT_TRUE(got.placed);
    ASSERT_EQ(got.layout.procCount(), expect.layout.procCount());
    for (std::size_t i = 0; i < expect.layout.procCount(); ++i) {
        EXPECT_EQ(got.layout.address(static_cast<ProcId>(i)),
                  expect.layout.address(static_cast<ProcId>(i)));
    }

    // The journaled placement survives a reopen.
    const ProfileStore reopened = ProfileStore::open(dir);
    ASSERT_EQ(reopened.profile().layout_addresses.size(),
              expect.layout.procCount());
    for (std::size_t i = 0; i < expect.layout.procCount(); ++i) {
        EXPECT_EQ(reopened.profile().layout_addresses[i],
                  expect.layout.address(static_cast<ProcId>(i)));
    }
    EXPECT_EQ(reopened.profile().layout_algorithm, "gbsc");
}

/**
 * The crash matrix: ingest crashes at every journal-path site, reopen
 * must observe pre XOR post, with pinned outcomes where the protocol
 * dictates one.
 */
TEST_F(StoreTest, IngestCrashMatrixYieldsPreOrPostExactly)
{
    struct Row
    {
        const char *site;
        /** -1 = pre required, +1 = post required, 0 = either. */
        int expect;
    };
    const Row rows[] = {
        // Torn mid-record: the tail fails its CRC, the record is lost.
        {"store.journal.mid_record", -1},
        // Record fully written but not yet fsynced: an in-process
        // crash leaves the bytes in the page cache, so either outcome
        // is legal — what is forbidden is a third state.
        {"store.journal.pre_fsync", 0},
        // Durable record: the ingest must be visible after reopen.
        {"store.journal.post_fsync", +1},
    };
    const StoreConfig config = microConfig();
    const std::vector<ShardDelta> deltas = microDeltas(config);
    for (const Row &row : rows) {
        const std::string dir =
            tempDir(std::string("crash_") + row.site);
        ProfileStore::init(dir, config);
        {
            ProfileStore store = ProfileStore::open(dir);
            store.ingest(deltas[0]);
        }
        const std::string pre = foldedState(config, deltas, 1);
        const std::string post = foldedState(config, deltas, 2);

        ProfileStore store = ProfileStore::open(dir);
        installCrashPoint(row.site, 1, CrashMode::kThrow);
        EXPECT_THROW(store.ingest(deltas[1]), CrashPointHit)
            << row.site;
        clearCrashPoint();

        const std::string state = reopenState(dir);
        EXPECT_TRUE(state == pre || state == post)
            << "third state after crash at " << row.site;
        if (row.expect < 0) {
            EXPECT_EQ(state, pre) << row.site;
        }
        if (row.expect > 0) {
            EXPECT_EQ(state, post) << row.site;
        }

        // The store must accept work after the crash: re-ingest the
        // (possibly lost) shard and land on the post state.
        if (state == pre) {
            ProfileStore retry = ProfileStore::open(dir);
            retry.ingest(deltas[1]);
            EXPECT_EQ(stateOf(retry), post) << row.site;
            EXPECT_EQ(reopenState(dir), post) << row.site;
        }
    }
}

/**
 * Compaction crash matrix: a crash at any snapshot/journal-rewrite
 * site must leave a store that reopens to the same logical state.
 */
TEST_F(StoreTest, CompactionCrashSitesPreserveTheState)
{
    const char *sites[] = {
        "store.snapshot.pre_rename", "store.snapshot.post_rename",
        "store.compact.pre_journal", "store.compact.pre_rename",
        "store.compact.post_rename"};
    const StoreConfig config = microConfig();
    const std::vector<ShardDelta> deltas = microDeltas(config);
    for (const char *site : sites) {
        const std::string dir = tempDir(std::string("compact_") + site);
        ProfileStore::init(dir, config);
        {
            ProfileStore store = ProfileStore::open(dir);
            store.ingest(deltas[0]);
            store.ingest(deltas[1]);
        }
        const std::string expect = foldedState(config, deltas, 2);

        ProfileStore store = ProfileStore::open(dir);
        installCrashPoint(site, 1, CrashMode::kThrow);
        EXPECT_THROW(store.compact(), CrashPointHit) << site;
        clearCrashPoint();

        EXPECT_EQ(reopenState(dir), expect)
            << "state changed by crashed compaction at " << site;

        // And the interrupted store still ingests + compacts.
        ProfileStore retry = ProfileStore::open(dir);
        retry.ingest(deltas[2]);
        retry.compact();
        EXPECT_EQ(reopenState(dir), foldedState(config, deltas, 3))
            << site;
    }
}

TEST_F(StoreTest, TornJournalTailIsDroppedAndOverwritten)
{
    const std::string dir = tempDir("torn_tail");
    const StoreConfig config = microConfig();
    const std::vector<ShardDelta> deltas = microDeltas(config);
    ProfileStore::init(dir, config);
    {
        ProfileStore store = ProfileStore::open(dir);
        store.ingest(deltas[0]);
        store.ingest(deltas[1]);
    }
    // Tear 5 bytes off the journal: record 2 loses its CRC.
    const std::string journal = dir + "/journal.tpj";
    std::string bytes;
    {
        std::ifstream is(journal, std::ios::binary);
        bytes.assign(std::istreambuf_iterator<char>(is),
                     std::istreambuf_iterator<char>());
    }
    std::filesystem::resize_file(journal, bytes.size() - 5);

    {
        const ProfileStore store = ProfileStore::open(dir);
        EXPECT_EQ(stateOf(store), foldedState(config, deltas, 1));
        EXPECT_GT(store.openStats().dropped_bytes, 0u);
    }
    // The trim made the prefix the whole file; appends extend it.
    ProfileStore store = ProfileStore::open(dir);
    EXPECT_EQ(store.openStats().dropped_bytes, 0u);
    store.ingest(deltas[1]);
    EXPECT_EQ(reopenState(dir), foldedState(config, deltas, 2));
}

TEST_F(StoreTest, CorruptNewestSnapshotSalvagesLosslessly)
{
    const std::string dir = tempDir("salvage");
    const StoreConfig config = microConfig();
    const std::vector<ShardDelta> deltas = microDeltas(config);
    ProfileStore::init(dir, config);
    {
        ProfileStore store = ProfileStore::open(dir);
        store.ingest(deltas[0]);
        store.ingest(deltas[1]);
        store.compact(); // generation 1, journal keeps seq > 0
        store.ingest(deltas[2]);
    }
    // Flip one payload bit of the newest snapshot (generation 1).
    const std::string snap = dir + "/snapshot-1.tps";
    {
        std::fstream f(snap, std::ios::in | std::ios::out |
                                 std::ios::binary);
        ASSERT_TRUE(f.good());
        f.seekg(100);
        char c = 0;
        f.get(c);
        f.seekp(100);
        f.put(static_cast<char>(c ^ 0x10));
    }
    const ProfileStore store = ProfileStore::open(dir);
    EXPECT_TRUE(store.openStats().salvaged);
    EXPECT_EQ(store.generation(), 0u);
    // Lossless: generation 0 + full journal replay == all 3 shards.
    EXPECT_EQ(stateOf(store), foldedState(config, deltas, 3));
}

TEST_F(StoreTest, DroppedMiddleRecordEndsTheValidPrefix)
{
    const std::string dir = tempDir("seq_gap");
    const StoreConfig config = microConfig();
    const std::vector<ShardDelta> deltas = microDeltas(config);
    ProfileStore::init(dir, config);
    {
        ProfileStore store = ProfileStore::open(dir);
        for (const ShardDelta &delta : deltas)
            store.ingest(delta);
    }
    // Excise record 2 (seq 2): the prefix ends after seq 1, and the
    // (intact) record 3 must NOT be applied across the gap.
    const std::string journal = dir + "/journal.tpj";
    std::string bytes;
    {
        std::ifstream is(journal, std::ios::binary);
        bytes.assign(std::istreambuf_iterator<char>(is),
                     std::istreambuf_iterator<char>());
    }
    const JournalScan scan = scanJournal(bytes, journal);
    ASSERT_EQ(scan.records.size(), 3u);
    bytes.erase(scan.extents[1].begin,
                scan.extents[1].end - scan.extents[1].begin);
    {
        std::ofstream os(journal,
                         std::ios::binary | std::ios::trunc);
        os.write(bytes.data(),
                 static_cast<std::streamsize>(bytes.size()));
    }
    const ProfileStore store = ProfileStore::open(dir);
    EXPECT_EQ(stateOf(store), foldedState(config, deltas, 1));
}

TEST_F(StoreTest, WriteShortFaultLeavesPreStateAndRetries)
{
    const std::string dir = tempDir("write_short");
    const StoreConfig config = microConfig();
    const std::vector<ShardDelta> deltas = microDeltas(config);
    ProfileStore::init(dir, config);
    {
        ProfileStore store = ProfileStore::open(dir);
        store.ingest(deltas[0]);
    }
    const std::string pre = foldedState(config, deltas, 1);

    FaultPlan plan;
    plan.arm(FaultKind::kWriteShort, 1.0, 7);
    installFaultPlan(plan);
    {
        ProfileStore store = ProfileStore::open(dir);
        EXPECT_THROW(store.ingest(deltas[1]), TopoError);
    }
    clearFaultPlan();

    // Torn write -> the reopened store salvages the pre state and the
    // retry lands exactly on the post state.
    EXPECT_EQ(reopenState(dir), pre);
    ProfileStore store = ProfileStore::open(dir);
    store.ingest(deltas[1]);
    EXPECT_EQ(reopenState(dir), foldedState(config, deltas, 2));
}

TEST_F(StoreTest, DriftGatesIncrementalReplacement)
{
    const std::string dir = tempDir("drift");
    const StoreConfig config = microConfig();
    const std::vector<ShardDelta> deltas = microDeltas(config);
    ProfileStore::init(dir, config);
    ProfileStore store = ProfileStore::open(dir);
    store.ingest(deltas[0]);

    // Never placed: any threshold places.
    const StorePlaceResult first = store.place("gbsc", 1e9);
    EXPECT_TRUE(first.placed);
    EXPECT_EQ(store.drift(), 0.0);

    // No new data: the stored layout is retained bit-for-bit.
    const StorePlaceResult retained = store.place("gbsc", 0.5);
    EXPECT_FALSE(retained.placed);
    for (std::size_t i = 0; i < first.layout.procCount(); ++i) {
        EXPECT_EQ(retained.layout.address(static_cast<ProcId>(i)),
                  first.layout.address(static_cast<ProcId>(i)));
    }

    // New shards move the TRG; a generous threshold still retains,
    // a tight one replaces and resets the baseline.
    store.ingest(deltas[1]);
    store.ingest(deltas[2]);
    const double drift = store.drift();
    EXPECT_GT(drift, 0.0);
    EXPECT_FALSE(store.place("gbsc", drift * 2).placed);
    EXPECT_TRUE(store.place("gbsc", drift / 2).placed);
    EXPECT_EQ(store.drift(), 0.0);
}

TEST_F(StoreTest, UnknownAlgorithmIsRejectedWhenThePlacementIsKept)
{
    const std::string dir = tempDir("kept");
    const StoreConfig config = microConfig();
    ProfileStore::init(dir, config);
    ProfileStore store = ProfileStore::open(dir);
    store.ingest(microDeltas(config)[0]);
    ASSERT_TRUE(store.place("gbsc", 1e9).placed);

    // No new data, so a known name keeps the stored layout; an unknown
    // one is a usage error all the same, and changes nothing.
    EXPECT_FALSE(store.place("ph", 1e9).placed);
    try {
        store.place("bogus", 1e9);
        ADD_FAILURE() << "an unknown algorithm was accepted";
    } catch (const TopoError &err) {
        EXPECT_EQ(err.exitCode(), 1);
        EXPECT_STREQ(err.what(), "unknown placement algorithm 'bogus' "
                                 "(use default, ph, hkc, or gbsc)");
    }
    EXPECT_EQ(store.profile().layout_algorithm, "gbsc");
}

TEST_F(StoreTest, AtomicReplaceFsyncsTheParentDirectory)
{
    const std::string dir = tempDir("dir_fsync");
    const StoreConfig config = microConfig();
    Counter &dir_fsyncs =
        MetricsRegistry::global().counter("store.dir_fsyncs");
    const std::uint64_t before = dir_fsyncs.value();
    ProfileStore::init(dir, config);
    // init atomically replaces snapshot, journal, and meta — each one
    // must fsync the store directory or the rename is not durable.
    EXPECT_GE(dir_fsyncs.value(), before + 3);
}

TEST_F(StoreTest, JournalScanRejectsDamagedHeadersOnly)
{
    // A valid header with garbage records: scan succeeds, prefix empty.
    std::string bytes = journalHeader(77);
    bytes += "garbage that is not a record";
    const JournalScan scan = scanJournal(bytes, "test");
    EXPECT_EQ(scan.store_id, 77u);
    EXPECT_TRUE(scan.records.empty());
    EXPECT_GT(scan.dropped_bytes, 0u);

    // A truncated header is corrupt input.
    EXPECT_THROW(scanJournal("TOPJ", "test"), TopoError);
}

TEST(ProfileBuild, SampledPairsFailWithOneTextOnEveryPath)
{
    const MicroCase micro = microCase("phase_flip");
    SamplingOptions sampling;
    sampling.mode = SampleMode::kSimpoint;
    StoreConfig config = microConfig();
    config.build_pairs = true;
    EvalOptions eval;
    eval.cache = micro.cache;
    eval.build_pairs = true;
    eval.sampling = sampling;
    const auto message = [](const auto &build) -> std::string {
        try {
            build();
        } catch (const TopoError &e) {
            return e.what();
        }
        return "no error";
    };
    const std::string store = message(
        [&] { buildShardDelta(config, "s", micro.trace, sampling); });
    EXPECT_NE(store.find("no sampled build"), std::string::npos) << store;
    EXPECT_EQ(store, message([&] {
                  buildProfile(micro.program, micro.trace, eval);
              }));
}

TEST(StoreJson, ValidatorChecksKeysTypesAndTheShardCount)
{
    // A topo_profile status document, as the tool writes it.
    const std::string status =
        R"({"topo_store": 1, "command": "status", "store": {)"
        R"("dir": "s", "generation": 1, "applied_seq": 3, "shards": 2,)"
        R"( "total_runs": 10, "total_bytes": 80, "layout_algorithm":)"
        R"( "gbsc", "drift": "inf", "open": {"snapshot_generation": 1,)"
        R"( "salvaged": false, "replayed_records": 1, "dropped_bytes": 0,)"
        R"( "dropped_records": 0}}})";
    EXPECT_EQ(validateArtifactJson(JsonValue::parse(status)), "topo_store");
    const auto rejects = [&](const std::string &from,
                             const std::string &to) {
        std::string text = status;
        text.replace(text.find(from), from.size(), to);
        EXPECT_THROW(validateArtifactJson(JsonValue::parse(text)),
                     TopoError)
            << to;
    };
    rejects(R"("shards": 2)", R"("shards": 4)"); // > applied_seq
    rejects(R"("salvaged": false)", R"("salvaged": 0)");
    rejects(R"("drift": "inf")", R"("drift": "nan")");
    rejects(R"("dir": "s")", R"("dir": 7)");
    rejects(R"("generation": 1)", R"("generation": {})");
    rejects(R"("total_runs": 10)", R"("total_runs": 10, "extra": 1)");
    rejects(R"("dir": "s", )", "");
}

/** FNV-1a over a file's bytes. */
std::uint64_t
fileHash(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::uint64_t h = kFnvBasis;
    char c;
    while (in.get(c))
        fnvMix(h, static_cast<unsigned char>(c), 1);
    return h;
}

TEST(GoldenPins, StoreFilesAfterExactPairsSampledCompactPlace)
{
    // One store ingests an exact shard, an exact shard with the pair
    // database and a simpoint-sampled shard, compacts, and force-places
    // with GBSC. The words are the hashes of the meta, both snapshot
    // slots and the journal, then the layout's address hash. They pin
    // every field of the shard record and snapshot bodies.
    static const WordGolden<5> kWant = {
        "store",
        {0x30b39cd34a684d9bULL, 0x44b9abddf96607e0ULL, 0x836152d22c7ef6dbULL,
         0xe2c035ef48b469e3ULL, 0x14cc41fd82cfd300ULL}};
    SyntheticSpec spec;
    spec.name = "golden_store";
    spec.proc_count = 40;
    spec.total_bytes = 80 * 1024;
    spec.popular_count = 14;
    spec.popular_bytes = 24 * 1024;
    spec.phase_count = 3;
    spec.ranks = 3;
    spec.seed = 31;
    const WorkloadModel model = buildSyntheticWorkload(spec);
    WorkloadInput input;
    input.seed = 32;
    input.target_runs = 15000;
    const std::vector<Trace> shards =
        splitTrace(synthesizeTrace(model, input), 3);

    StoreConfig config;
    config.program = model.program;
    config.build_pairs = true;
    StoreConfig no_pairs = config;
    no_pairs.build_pairs = false;
    SamplingOptions sampling;
    sampling.mode = SampleMode::kSimpoint;
    sampling.window_runs = 256;
    sampling.seed = 7;
    ASSERT_GT(buildSamplePlan(config.program, shards[2],
                              config.cache.line_bytes, sampling)
                  .segments.size(),
              1u);

    const TestTempDir tmp;
    const std::string dir = tmp.file("store");
    ProfileStore::init(dir, config);
    ProfileStore store = ProfileStore::open(dir);
    store.ingest(
        buildShardDelta(no_pairs, "exact", shards[0], SamplingOptions{}));
    store.ingest(
        buildShardDelta(config, "pairs", shards[1], SamplingOptions{}));
    store.ingest(buildShardDelta(no_pairs, "sampled", shards[2], sampling));
    ASSERT_GT(store.profile().pairs.size(), 0u);
    store.compact();
    const StorePlaceResult placed = store.place("gbsc", 0.0, true);
    ASSERT_TRUE(placed.placed);

    const std::uint64_t got[5] = {
        fileHash(dir + "/store.meta"), fileHash(dir + "/snapshot-0.tps"),
        fileHash(dir + "/snapshot-1.tps"), fileHash(dir + "/journal.tpj"),
        layoutHash(placed.layout)};
    expectGolden(kWant, got);
}

} // namespace
} // namespace topo
