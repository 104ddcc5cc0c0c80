#include "topo/eval/page_metric.hh"

#include <list>
#include <unordered_map>
#include <unordered_set>

#include "topo/util/error.hh"

namespace topo
{

PageStats
measurePageStats(const Program &program, const Layout &layout,
                 const FetchStream &stream, std::uint32_t page_bytes,
                 std::uint32_t resident_pages)
{
    require(page_bytes > 0 && page_bytes % stream.lineBytes() == 0,
            "measurePageStats: page size must be a positive multiple of "
            "the line size");
    require(resident_pages > 0,
            "measurePageStats: need at least one resident page");

    const std::uint32_t lines_per_page = page_bytes / stream.lineBytes();
    std::vector<std::uint64_t> base_line(program.procCount());
    for (std::size_t i = 0; i < program.procCount(); ++i) {
        base_line[i] =
            layout.startLine(static_cast<ProcId>(i), stream.lineBytes());
    }

    PageStats stats;
    stats.accesses = stream.size();
    std::unordered_set<std::uint64_t> touched;
    std::uint64_t last_page = ~std::uint64_t{0};

    // Fully-associative LRU page cache: list MRU->LRU + index map.
    std::list<std::uint64_t> lru;
    std::unordered_map<std::uint64_t,
                       std::list<std::uint64_t>::iterator>
        where;

    std::uint64_t run_line = 0; // placed line of the run's first line
    auto on_run = [&](const FetchRun &run) {
        const ProcId proc = stream.procOfLine(run.first_line);
        run_line = base_line[proc] +
                   (run.first_line - stream.lineBase(proc));
    };
    auto on_fetch = [&](std::uint32_t j) {
        const std::uint64_t page = (run_line + j) / lines_per_page;
        touched.insert(page);
        if (page != last_page) {
            if (last_page != ~std::uint64_t{0})
                ++stats.page_switches;
            last_page = page;

            auto it = where.find(page);
            if (it != where.end()) {
                lru.splice(lru.begin(), lru, it->second);
            } else {
                ++stats.lru_faults;
                lru.push_front(page);
                where[page] = lru.begin();
                if (lru.size() > resident_pages) {
                    where.erase(lru.back());
                    lru.pop_back();
                }
            }
        }
    };
    stream.forEachFetch(on_run, on_fetch);
    stats.pages_touched = touched.size();
    return stats;
}

} // namespace topo
