#include "topo/cache/attribution.hh"

#include <algorithm>

#include "topo/util/error.hh"

namespace topo
{

namespace
{

std::uint64_t
pairKey(ProcId evictor, ProcId victim)
{
    return (static_cast<std::uint64_t>(evictor) << 32) |
           static_cast<std::uint64_t>(victim);
}

} // namespace

AttributionSink::AttributionSink(const Program &program,
                                 const Layout &layout,
                                 const CacheConfig &config,
                                 std::uint32_t line_bytes,
                                 Options options)
    : program_(&program), options_(options)
{
    require(options_.max_pairs > 0,
            "AttributionSink: max_pairs must be positive");
    fetches_by_proc_.assign(program.procCount(), 0);
    misses_by_proc_.assign(program.procCount(), 0);
    accesses_by_set_.assign(config.setCount(), 0);
    misses_by_set_.assign(config.setCount(), 0);
    extents_.reserve(program.procCount());
    for (std::size_t i = 0; i < program.procCount(); ++i) {
        const ProcId id = static_cast<ProcId>(i);
        const std::uint64_t first = layout.startLine(id, line_bytes);
        extents_.push_back(
            {first, first + program.sizeInLines(id, line_bytes), id});
    }
    std::sort(extents_.begin(), extents_.end(),
              [](const Extent &a, const Extent &b) {
                  return a.first_line < b.first_line;
              });
    pairs_.reserve(std::min<std::size_t>(options_.max_pairs, 1 << 16));
}

ProcId
AttributionSink::procAtLine(std::uint64_t line_addr) const
{
    // Last extent starting at or before the line; layouts never
    // overlap, so at most one extent can cover it.
    auto it = std::upper_bound(
        extents_.begin(), extents_.end(), line_addr,
        [](std::uint64_t line, const Extent &e) {
            return line < e.first_line;
        });
    if (it == extents_.begin())
        return kInvalidProc;
    --it;
    return line_addr < it->end_line ? it->proc : kInvalidProc;
}

void
AttributionSink::recordMiss(ProcId proc, std::uint32_t set,
                            std::uint64_t victim_line)
{
    ++misses_by_proc_[proc];
    ++misses_by_set_[set];
    if (victim_line == kInvalidLineAddr)
        return; // cold fill: no procedure was displaced
    ++evictions_;
    const ProcId victim = procAtLine(victim_line);
    if (victim == kInvalidProc)
        return; // gap/padding line (cannot happen for packed layouts)
    const std::uint64_t key = pairKey(proc, victim);
    auto it = pairs_.find(key);
    if (it != pairs_.end()) {
        ++it->second;
        return;
    }
    if (pairs_.size() >= options_.max_pairs) {
        ++dropped_pairs_;
        return;
    }
    pairs_.emplace(key, 1);
}

std::vector<ConflictPair>
AttributionSink::topPairs(std::size_t k) const
{
    std::vector<ConflictPair> all;
    all.reserve(pairs_.size());
    for (const auto &[key, count] : pairs_) {
        all.push_back({static_cast<ProcId>(key >> 32),
                       static_cast<ProcId>(key & 0xffffffffu), count});
    }
    std::sort(all.begin(), all.end(),
              [](const ConflictPair &a, const ConflictPair &b) {
                  if (a.count != b.count)
                      return a.count > b.count;
                  if (a.evictor != b.evictor)
                      return a.evictor < b.evictor;
                  return a.victim < b.victim;
              });
    if (all.size() > k)
        all.resize(k);
    return all;
}

JsonValue
AttributionSink::toJson(std::size_t top_k) const
{
    JsonValue root = JsonValue::object();
    root.set("evictions",
             JsonValue::number(static_cast<double>(evictions_)));
    root.set("tracked_pairs",
             JsonValue::number(static_cast<double>(pairs_.size())));
    root.set("dropped_pairs",
             JsonValue::number(static_cast<double>(dropped_pairs_)));

    JsonValue procs = JsonValue::array();
    for (std::size_t i = 0; i < fetches_by_proc_.size(); ++i) {
        if (fetches_by_proc_[i] == 0 && misses_by_proc_[i] == 0)
            continue;
        JsonValue row = JsonValue::object();
        row.set("proc", JsonValue::string(
                            program_->proc(static_cast<ProcId>(i)).name));
        row.set("fetches", JsonValue::number(
                               static_cast<double>(fetches_by_proc_[i])));
        row.set("misses", JsonValue::number(
                              static_cast<double>(misses_by_proc_[i])));
        procs.push(std::move(row));
    }
    root.set("procedures", std::move(procs));

    JsonValue sets = JsonValue::array();
    for (std::size_t s = 0; s < accesses_by_set_.size(); ++s) {
        JsonValue row = JsonValue::object();
        row.set("set", JsonValue::number(static_cast<double>(s)));
        row.set("accesses", JsonValue::number(
                                static_cast<double>(accesses_by_set_[s])));
        row.set("misses", JsonValue::number(
                              static_cast<double>(misses_by_set_[s])));
        sets.push(std::move(row));
    }
    root.set("sets", std::move(sets));

    JsonValue top = JsonValue::array();
    for (const ConflictPair &pair : topPairs(top_k)) {
        JsonValue row = JsonValue::object();
        row.set("evictor",
                JsonValue::string(program_->proc(pair.evictor).name));
        row.set("victim",
                JsonValue::string(program_->proc(pair.victim).name));
        row.set("count",
                JsonValue::number(static_cast<double>(pair.count)));
        top.push(std::move(row));
    }
    root.set("top_pairs", std::move(top));
    return root;
}

} // namespace topo
