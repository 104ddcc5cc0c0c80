#include "topo/placement/refine.hh"

#include <algorithm>

#include "topo/obs/log.hh"
#include "topo/obs/metrics.hh"
#include "topo/obs/phase_timer.hh"
#include "topo/placement/decision_log.hh"
#include "topo/placement/gbsc.hh"
#include "topo/util/error.hh"

namespace topo
{

namespace
{

/**
 * The cache-line colours a placed chunk occupies: its lines are
 * consecutive, so they are color, color + 1, ... (mod lineCount()).
 * An unplaced chunk has no lines.
 */
struct ColorRun
{
    std::uint32_t color = 0;
    std::uint32_t lines = 0;
};

/** Place (@p add) or lift one procedure's chunks at @p offset. */
void
applyProc(std::vector<ColorRun> &runs, const PlacementContext &ctx,
          ProcId proc, std::uint32_t offset, bool add)
{
    const std::uint32_t cache_lines = ctx.cache.lineCount();
    const std::uint32_t line_bytes = ctx.cache.line_bytes;
    const std::uint32_t len = ctx.program->sizeInLines(proc, line_bytes);
    for (std::uint32_t line = 0; line < len; ++line) {
        ColorRun &run =
            runs[ctx.chunks->chunkAtLine(proc, line, line_bytes)];
        if (!add)
            run = ColorRun{};
        else if (run.lines++ == 0)
            run.color = (offset + line) % cache_lines;
    }
}

} // namespace

RefineResult
refineLayout(const PlacementContext &ctx, const Layout &base,
             const RefineOptions &options)
{
    ctx.requireBasics("refineLayout");
    require(ctx.chunks != nullptr && ctx.trg_place != nullptr,
            "refineLayout: context needs chunks and TRG_place");
    PhaseTimer timer("placement.refine");
    const Program &program = *ctx.program;
    const std::uint32_t cache_lines = ctx.cache.lineCount();
    const std::uint32_t line_bytes = ctx.cache.line_bytes;
    const WeightedGraph &trg_place = *ctx.trg_place;

    std::vector<std::uint32_t> offsets(program.procCount());
    for (std::size_t i = 0; i < program.procCount(); ++i) {
        offsets[i] = static_cast<std::uint32_t>(
            base.startLine(static_cast<ProcId>(i), line_bytes) %
            cache_lines);
    }
    const std::vector<bool> *include =
        ctx.popular.empty() ? nullptr : &ctx.popular;

    RefineResult result;
    result.initial_metric = Gbsc::conflictMetric(ctx, offsets, include);

    // Movable set: popular procedures, hottest first.
    std::vector<ProcId> movable;
    for (ProcId id : procsByHeat(ctx)) {
        if (ctx.isPopular(id))
            movable.push_back(id);
    }

    std::vector<ColorRun> runs(ctx.chunks->chunkCount());
    for (ProcId id : movable)
        applyProc(runs, ctx, id, offsets[id], true);

    const bool log_passes = logEnabled(LogLevel::kDebug);
    std::vector<double> cost(cache_lines);
    for (std::size_t pass = 0; pass < options.max_passes; ++pass) {
        bool improved = false;
        ++result.passes;
        const std::uint64_t moves_before = result.moves;
        for (ProcId proc : movable) {
            applyProc(runs, ctx, proc, offsets[proc], false);
            // Sparse cost-per-offset accumulation (merge_nodes style):
            // line l of proc collides with a placed chunk's colour cq
            // at offset cq - l (mod lines), one kernel call per line
            // and neighbour. Sorted neighbours: deterministic FP
            // accumulation order regardless of hash layout (DESIGN.md
            // §9). The CSR memoizes the sort, so re-querying the same
            // chunk for consecutive lines is an O(1) span lookup.
            std::fill(cost.begin(), cost.end(), 0.0);
            const std::uint32_t len =
                program.sizeInLines(proc, line_bytes);
            for (std::uint32_t line = 0; line < len; ++line) {
                const ChunkId chunk =
                    ctx.chunks->chunkAtLine(proc, line, line_bytes);
                for (const auto &[other, weight] :
                     trg_place.neighbors(chunk)) {
                    accumulateColorCollisions(cost, runs[other].color,
                                              runs[other].lines, line, 1,
                                              weight);
                }
            }
            // Best-improvement; ties keep the current offset so the
            // search terminates.
            std::uint32_t best = offsets[proc];
            for (std::uint32_t o = 0; o < cache_lines; ++o) {
                if (cost[o] < cost[best])
                    best = o;
            }
            if (best != offsets[proc] &&
                cost[best] < cost[offsets[proc]]) {
                if (ctx.decisions)
                    ctx.decisions->recordChoice(
                        DecisionKind::kPlace, "refine.move", proc,
                        kInvalidProc, cost[offsets[proc]], best, cost,
                        "keep-current-offset");
                offsets[proc] = best;
                ++result.moves;
                improved = true;
            }
            applyProc(runs, ctx, proc, offsets[proc], true);
        }
        if (log_passes) {
            logDebug("refine", "refine pass",
                     {{"pass", pass + 1},
                      {"moves", result.moves - moves_before},
                      {"total_moves", result.moves},
                      {"improved", improved}});
        }
        if (!improved)
            break;
    }

    result.final_metric = Gbsc::conflictMetric(ctx, offsets, include);
    result.layout = Layout::fromCacheOffsets(
        program, base.orderByAddress(), offsets, line_bytes,
        cache_lines);
    MetricsRegistry &metrics = MetricsRegistry::current();
    metrics.counter("refine.passes").add(result.passes);
    metrics.counter("refine.moves").add(result.moves);
    timer.stop();
    if (log_passes) {
        logDebug("refine", "refinement done",
                 {{"passes", result.passes},
                  {"moves", result.moves},
                  {"initial_metric", result.initial_metric},
                  {"final_metric", result.final_metric},
                  {"ms", timer.elapsedMs()}});
    }
    return result;
}

} // namespace topo
