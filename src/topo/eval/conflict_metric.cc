#include "topo/eval/conflict_metric.hh"

#include "topo/eval/experiment.hh"
#include "topo/placement/gbsc.hh"
#include "topo/util/error.hh"

namespace topo
{

double
trgConflictMetric(const PlacementContext &ctx, const Layout &layout)
{
    ctx.requireBasics("trgConflictMetric");
    return Gbsc::conflictMetric(
        ctx, layoutOffsets(*ctx.program, layout, ctx.cache),
        ctx.popular.empty() ? nullptr : &ctx.popular);
}

double
wcgConflictMetric(const PlacementContext &ctx, const Layout &layout)
{
    ctx.requireBasics("wcgConflictMetric");
    require(ctx.wcg != nullptr, "wcgConflictMetric: context has no WCG");
    return sharedLineWeight(*ctx.program, ctx.cache, *ctx.wcg, nullptr,
                            layoutOffsets(*ctx.program, layout, ctx.cache),
                            ctx.popular.empty() ? nullptr : &ctx.popular);
}

} // namespace topo
