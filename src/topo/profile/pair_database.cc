#include "topo/profile/pair_database.hh"

#include <algorithm>

#include "topo/exec/exec.hh"
#include "topo/profile/trg_accumulator.hh"
#include "topo/util/error.hh"

namespace topo
{

std::uint64_t
PairDatabase::key(BlockId p, BlockId r, BlockId s)
{
    require(p != r && p != s && r != s, "PairDatabase: ids must be distinct");
    require(p < (1u << 21) && r < (1u << 21) && s < (1u << 21),
            "PairDatabase: block id exceeds 21 bits");
    const BlockId lo = std::min(r, s);
    const BlockId hi = std::max(r, s);
    return (static_cast<std::uint64_t>(p) << 42) |
           (static_cast<std::uint64_t>(lo) << 21) |
           static_cast<std::uint64_t>(hi);
}

void
PairDatabase::add(BlockId p, BlockId r, BlockId s, double w)
{
    table_[key(p, r, s)] += w;
}

double
PairDatabase::get(BlockId p, BlockId r, BlockId s) const
{
    return table_.get(key(p, r, s), 0.0);
}

void
PairDatabase::merge(const PairDatabase &other)
{
    require(&other != this, "PairDatabase::merge: self merge");
    other.table_.forEach([this](std::uint64_t packed, double weight) {
        table_[packed] += weight;
    });
}

void
PairDatabase::prune(double min_weight)
{
    table_.filter([min_weight](std::uint64_t, double weight) {
        return weight >= min_weight;
    });
}

std::vector<PairDatabase::Entry>
PairDatabase::entries() const
{
    std::vector<Entry> out;
    out.reserve(table_.size());
    table_.forEach([&out](std::uint64_t packed, double weight) {
        Entry e;
        e.p = static_cast<BlockId>(packed >> 42);
        e.r = static_cast<BlockId>((packed >> 21) & ((1u << 21) - 1));
        e.s = static_cast<BlockId>(packed & ((1u << 21) - 1));
        e.weight = weight;
        out.push_back(e);
    });
    std::sort(out.begin(), out.end(), [](const Entry &a, const Entry &b) {
        if (a.p != b.p)
            return a.p < b.p;
        if (a.r != b.r)
            return a.r < b.r;
        return a.s < b.s;
    });
    return out;
}

namespace
{

/**
 * TRG walk options under which an accumulator counts no graph and
 * adds the Section 6 pairs of every step's between-list to @p db.
 */
TrgBuildOptions
pairWalk(const PairBuildOptions &options, PairDatabase *db)
{
    TrgBuildOptions walk;
    walk.byte_budget = options.byte_budget;
    walk.build_select = false;
    walk.build_place = false;
    walk.popular = options.popular;
    walk.observer = [db, window = options.pair_window](
                        ProcId proc, bool had_prev,
                        const std::vector<BlockId> &between,
                        const TemporalQueue &) {
        if (!had_prev)
            return;
        // Keep only the most recent pair_window distinct blocks; those
        // are nearest the new reference and most likely still resident.
        const std::size_t count =
            std::min<std::size_t>(between.size(), window);
        for (std::size_t i = between.size() - count; i < between.size();
             ++i) {
            for (std::size_t j = i + 1; j < between.size(); ++j)
                db->add(proc, between[i], between[j], 1.0);
        }
    };
    return walk;
}

} // namespace

PairDatabase
buildPairDatabase(const Program &program, const Trace &trace,
                  const PairBuildOptions &options)
{
    require(trace.procCount() == program.procCount(),
            "buildPairDatabase: program/trace mismatch");
    require(options.pair_window >= 2,
            "buildPairDatabase: pair window must be at least 2");

    // D is read off the TRG walk at procedure granularity; with more
    // than one shard it shards exactly like buildTrgs. The planner
    // only warms, so it never calls the observer.
    const ChunkMap chunks(program);
    const std::size_t shard_count = eventShardCount(trace.size());
    std::vector<TraceShard> shards(1);
    shards[0].end = trace.size();
    if (shard_count > 1) {
        shards = planTraceShards(program, chunks, trace,
                                 pairWalk(options, nullptr), shard_count);
    }
    const std::vector<TraceEvent> &events = trace.events();
    std::vector<PairDatabase> dbs =
        parallelMap(shards.size(), [&](std::size_t s) {
            PairDatabase db;
            TrgAccumulator walk(program, chunks, pairWalk(options, &db));
            const TraceShard &shard = shards[s];
            walk.seedState(shard.proc_queue, shard.chunk_queue,
                           shard.last_proc, shard.last_chunk);
            for (std::size_t i = shard.begin; i < shard.end; ++i)
                walk.onRun(events[i].proc, events[i].offset,
                           events[i].length);
            return db;
        });
    for (std::size_t s = 1; s < dbs.size(); ++s)
        dbs[0].merge(dbs[s]);
    return std::move(dbs[0]);
}

} // namespace topo
