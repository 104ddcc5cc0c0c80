#include "topo/placement/placement.hh"

#include <algorithm>
#include <numeric>

#include "topo/placement/decision_log.hh"
#include "topo/util/error.hh"
#include "topo/util/rng.hh"

namespace topo
{

namespace
{

/** Trivial per-procedure kPlace records for a finished layout. */
void
recordWholeLayout(const PlacementContext &ctx, const Layout &layout,
                  const char *stage, const char *tie_break)
{
    if (!ctx.decisions)
        return;
    for (ProcId p : layout.orderByAddress())
        ctx.decisions->recordPlace(stage, p, layout.address(p),
                                   ctx.heatOf(p), tie_break);
}

} // namespace

void
PlacementContext::requireBasics(const std::string &who) const
{
    require(program != nullptr, who + ": context has no program");
    cache.validate();
    if (!popular.empty()) {
        require(popular.size() == program->procCount(),
                who + ": popularity mask size mismatch");
    }
    if (!heat.empty()) {
        require(heat.size() == program->procCount(),
                who + ": heat vector size mismatch");
    }
}

Layout
DefaultPlacement::place(const PlacementContext &ctx) const
{
    ctx.requireBasics("DefaultPlacement");
    Layout layout = Layout::defaultOrder(*ctx.program,
                                         ctx.cache.line_bytes);
    recordWholeLayout(ctx, layout, "default.emit", "source-order");
    return layout;
}

Layout
RandomPlacement::place(const PlacementContext &ctx) const
{
    ctx.requireBasics("RandomPlacement");
    std::vector<ProcId> order(ctx.program->procCount());
    std::iota(order.begin(), order.end(), 0);
    Rng rng(seed_);
    rng.shuffle(order);
    Layout layout = Layout::fromOrder(*ctx.program, order,
                                      ctx.cache.line_bytes);
    recordWholeLayout(ctx, layout, "random.emit", "seeded-shuffle");
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
