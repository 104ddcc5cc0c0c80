#include "topo/placement/placement.hh"

#include <algorithm>
#include <numeric>

#include "topo/placement/decision_log.hh"
#include "topo/util/error.hh"

namespace topo
{

void
PlacementContext::requireBasics(std::string_view who) const
{
    if (program == nullptr)
        fail(std::string(who) + ": context has no program");
    cache.validate();
    if (!popular.empty() && popular.size() != program->procCount())
        fail(std::string(who) + ": popularity mask size mismatch");
    if (!heat.empty() && heat.size() != program->procCount())
        fail(std::string(who) + ": heat vector size mismatch");
}

Layout
DefaultPlacement::place(const PlacementContext &ctx) const
{
    ctx.requireBasics("DefaultPlacement");
    Layout layout = Layout::defaultOrder(*ctx.program,
                                         ctx.cache.line_bytes);
    if (ctx.decisions) {
        for (ProcId p : layout.orderByAddress())
            ctx.decisions->recordPlace("default.emit", p, layout.address(p),
                                       ctx.heatOf(p), "source-order");
    }
    return layout;
}

void
accumulateColorCollisions(std::vector<double> &cost, std::uint64_t p_start,
                          std::uint64_t p_len, std::uint64_t q_off,
                          std::uint64_t q_len, double weight)
{
    const std::uint64_t colors = cost.size();
    require(colors != 0, "accumulateColorCollisions: no colours");
    double *const c = cost.data();
    const std::uint64_t sweeps = q_len / colors;
    const std::uint64_t rest = q_len % colors;
    // s0: the start colour at which p's line lp meets q's first line.
    // q's lines lq = 0, 1, ... then meet p's line at s0, s0 - 1, ...;
    // after the full sweeps, its last `rest` lines take the run
    // (s0 - rest, s0], wrapping below colour 0.
    std::uint64_t s0 =
        (p_start % colors + colors - q_off % colors) % colors;
    for (std::uint64_t lp = 0; lp < p_len; ++lp) {
        for (std::uint64_t k = 0; k < sweeps; ++k) {
            for (std::uint64_t s = 0; s < colors; ++s)
                c[s] += weight;
        }
        if (rest <= s0 + 1) {
            for (std::uint64_t s = s0 + 1 - rest; s <= s0; ++s)
                c[s] += weight;
        } else {
            for (std::uint64_t s = 0; s <= s0; ++s)
                c[s] += weight;
            for (std::uint64_t s = colors + s0 + 1 - rest; s < colors; ++s)
                c[s] += weight;
        }
        s0 = s0 + 1 == colors ? 0 : s0 + 1;
    }
}

double
sharedLineWeight(const Program &program, const CacheConfig &cache,
                 const WeightedGraph &graph, const ChunkMap *chunks,
                 const std::vector<std::uint32_t> &offsets,
                 const std::vector<bool> *include)
{
    const std::uint32_t cache_lines = cache.lineCount();
    const std::uint32_t line_bytes = cache.line_bytes;
    std::vector<std::vector<BlockId>> by_line(cache_lines);
    for (std::size_t i = 0; i < program.procCount(); ++i) {
        const auto proc = static_cast<ProcId>(i);
        if (include && !(*include)[proc])
            continue;
        const std::uint32_t len = program.sizeInLines(proc, line_bytes);
        for (std::uint32_t line = 0; line < len; ++line) {
            by_line[(offsets[proc] + line) % cache_lines].push_back(
                chunks ? chunks->chunkAtLine(proc, line, line_bytes)
                       : proc);
        }
    }
    // Equal blocks are skipped: the graph has no self edges, so their
    // weight would be +0.0 anyway.
    double metric = 0.0;
    for (const auto &bucket : by_line) {
        for (std::size_t i = 0; i < bucket.size(); ++i) {
            for (std::size_t j = i + 1; j < bucket.size(); ++j) {
                if (bucket[i] != bucket[j])
                    metric += graph.weight(bucket[i], bucket[j]);
            }
        }
    }
    return metric;
}

std::vector<ProcId>
procsByHeat(const PlacementContext &ctx)
{
    std::vector<ProcId> order(ctx.program->procCount());
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(),
                     [&ctx](ProcId a, ProcId b) {
                         const double ha = ctx.heatOf(a);
                         const double hb = ctx.heatOf(b);
                         if (ha != hb)
                             return ha > hb;
                         return a < b;
                     });
    return order;
}

PlacementContext
profileContext(const Program &program, const CacheConfig &cache,
               const ChunkMap &chunks, const TraceProfile &profile,
               std::vector<bool> popular)
{
    PlacementContext ctx;
    ctx.program = &program;
    ctx.cache = cache;
    ctx.chunks = &chunks;
    ctx.wcg = &profile.wcg;
    ctx.trg_select = &profile.trg_select;
    ctx.trg_place = &profile.trg_place;
    ctx.pairs = &profile.pairs;
    ctx.popular = std::move(popular);
    ctx.heat.assign(program.procCount(), 0.0);
    for (std::size_t i = 0; i < program.procCount(); ++i)
        ctx.heat[i] = static_cast<double>(profile.stats.bytes_fetched[i]);
    return ctx;
}

} // namespace topo
