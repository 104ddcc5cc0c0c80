/**
 * @file
 * Independent checks the benchmark runs outside its timed region.
 *
 * naiveDirectMapped() is a second, deliberately plain model of the
 * instruction cache: it walks the trace event by event, turns each
 * run's byte range into placed cache lines straight from the layout's
 * addresses, and probes one tag per set. It shares no code with the
 * library's replay (no FetchStream, no repeat skip, no batched runs),
 * so agreement on (accesses, misses) is evidence that both are right.
 */

#ifndef PERFBENCH_REFERENCE_HH
#define PERFBENCH_REFERENCE_HH

#include <cstdint>
#include <vector>

#include "topo/cache/cache_config.hh"
#include "topo/program/layout.hh"
#include "topo/program/program.hh"
#include "topo/trace/trace.hh"
#include "topo/util/error.hh"

namespace perfbench
{

/** Access and miss counts of one replay. */
struct ReplayCounts
{
    std::uint64_t accesses = 0;
    std::uint64_t misses = 0;

    /** Same arithmetic as topo::SimResult::missRate. */
    double
    missRate() const
    {
        return accesses ? static_cast<double>(misses) /
                              static_cast<double>(accesses)
                        : 0.0;
    }

    bool
    operator==(const ReplayCounts &other) const
    {
        return accesses == other.accesses && misses == other.misses;
    }
};

/** Direct-mapped replay of @p trace under @p layout, one line at a time. */
inline ReplayCounts
naiveDirectMapped(const topo::Program &program, const topo::Layout &layout,
                  const topo::Trace &trace, const topo::CacheConfig &cache)
{
    topo::require(cache.associativity == 1,
                  "perfbench: the reference model is direct-mapped");
    const std::uint64_t line_bytes = cache.line_bytes;
    const std::uint64_t sets = cache.lineCount();
    std::vector<std::uint64_t> base(program.procCount());
    for (std::size_t p = 0; p < base.size(); ++p)
        base[p] = layout.address(static_cast<topo::ProcId>(p));

    constexpr std::uint64_t kEmpty = ~std::uint64_t{0};
    std::vector<std::uint64_t> tags(sets, kEmpty);
    ReplayCounts counts;
    for (const topo::TraceEvent &event : trace.events()) {
        const std::uint64_t first = base[event.proc] + event.offset;
        const std::uint64_t last = first + event.length - 1;
        for (std::uint64_t line = first / line_bytes;
             line <= last / line_bytes; ++line) {
            ++counts.accesses;
            std::uint64_t &tag = tags[line % sets];
            if (tag != line) {
                ++counts.misses;
                tag = line;
            }
        }
    }
    return counts;
}

/** FNV-1a digest of every procedure's address under @p layout. */
inline std::uint64_t
layoutDigest(const topo::Layout &layout)
{
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    auto mix = [&hash](std::uint64_t value) {
        for (int byte = 0; byte < 8; ++byte) {
            hash ^= (value >> (8 * byte)) & 0xff;
            hash *= 0x100000001b3ULL;
        }
    };
    for (std::size_t p = 0; p < layout.procCount(); ++p)
        mix(layout.address(static_cast<topo::ProcId>(p)));
    return hash;
}

} // namespace perfbench

#endif // PERFBENCH_REFERENCE_HH
