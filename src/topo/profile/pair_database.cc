#include "topo/profile/pair_database.hh"

#include <algorithm>

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

PairDatabase
buildPairDatabase(const Program &program, const Trace &trace,
                  const PairBuildOptions &options)
{
    require(trace.procCount() == program.procCount(),
            "buildPairDatabase: program/trace mismatch");
    require(options.pair_window >= 2,
            "buildPairDatabase: pair window must be at least 2");

    // D is read off the TRG walk at procedure granularity: the walk
    // counts no graph and hands every step's between-list to the
    // observer, which adds its Section 6 pairs.
    PairDatabase db;
    TrgBuildOptions walk;
    walk.byte_budget = options.byte_budget;
    walk.build_select = false;
    walk.build_place = false;
    walk.popular = options.popular;
    walk.observer = [&db, window = options.pair_window](
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
                db.add(proc, between[i], between[j], 1.0);
        }
    };
    const ChunkMap chunks(program);
    TrgAccumulator accumulator(program, chunks, walk);
    accumulator.onTrace(trace);
    return db;
}

} // namespace topo
