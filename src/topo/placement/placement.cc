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
