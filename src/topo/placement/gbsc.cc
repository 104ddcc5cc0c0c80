#include "topo/placement/gbsc.hh"

#include <algorithm>
#include <string>
#include <string_view>

#include "topo/obs/log.hh"
#include "topo/obs/metrics.hh"
#include "topo/obs/phase_timer.hh"
#include "topo/placement/decision_log.hh"
#include "topo/placement/gap_fill.hh"
#include "topo/placement/merge_graph.hh"
#include "topo/util/error.hh"

namespace topo
{

namespace
{

/**
 * One chunk's lines in a node's current layout: the chunk, the colour
 * of its first line (modulo the alignment modulus) and its line count.
 * The lines are consecutive, so their colours are colour, colour + 1,
 * ... (mod modulus).
 */
struct ChunkSpan
{
    ChunkId chunk;
    std::uint32_t color;
    std::uint32_t lines;
};

bool
spanBefore(const ChunkSpan &span, ChunkId chunk)
{
    return span.chunk < chunk;
}

/**
 * The chunk spans of a node, sorted by chunk id. A line belongs to the
 * chunk holding its first byte (ChunkMap::chunkAtLine), so chunk k of
 * a procedure holds lines ceil(k * chunk_bytes / line_bytes) up to
 * ceil((k + 1) * chunk_bytes / line_bytes), clipped to the procedure.
 * A chunk that holds no line's first byte has no span.
 */
std::vector<ChunkSpan>
chunkSpans(const PlacementContext &ctx, const GbscNode &node,
           std::uint32_t modulus)
{
    const ChunkMap &chunks = *ctx.chunks;
    const std::uint64_t line_bytes = ctx.cache.line_bytes;
    const std::uint64_t chunk_bytes = chunks.chunkBytes();
    std::size_t capacity = 0;
    for (const auto &entry : node.procs)
        capacity += chunks.chunksOf(entry.first);
    std::vector<ChunkSpan> spans;
    spans.reserve(capacity);
    for (const auto &[proc, offset] : node.procs) {
        const std::uint64_t len =
            ctx.program->sizeInLines(proc, ctx.cache.line_bytes);
        const ChunkId first = chunks.chunkId(proc, 0);
        std::uint64_t begin = 0;
        for (std::uint32_t k = 0; begin < len; ++k) {
            const std::uint64_t end = std::min(
                len, ((k + 1) * chunk_bytes + line_bytes - 1) / line_bytes);
            if (end > begin) {
                spans.push_back(ChunkSpan{
                    first + k,
                    static_cast<std::uint32_t>((offset + begin) % modulus),
                    static_cast<std::uint32_t>(end - begin)});
            }
            begin = end;
        }
    }
    std::sort(spans.begin(), spans.end(),
              [](const ChunkSpan &a, const ChunkSpan &b) {
                  return a.chunk < b.chunk;
              });
    return spans;
}

void
requireGbscInputs(const PlacementContext &ctx, std::string_view who)
{
    ctx.requireBasics(who);
    if (ctx.chunks == nullptr)
        fail(std::string(who) + ": context has no chunk map");
    if (ctx.trg_place == nullptr)
        fail(std::string(who) + ": context has no TRG_place");
    if (ctx.trg_place->nodeCount() != ctx.chunks->chunkCount())
        fail(std::string(who) +
             ": TRG_place node count does not match the chunk map");
}

} // namespace

std::vector<double>
Gbsc::alignmentCost(const PlacementContext &ctx, const GbscNode &n1,
                    const GbscNode &n2, std::uint32_t modulus)
{
    requireGbscInputs(ctx, "Gbsc::alignmentCost");
    require(modulus > 0, "Gbsc::alignmentCost: zero modulus");
    require(ctx.cache.lineCount() % modulus == 0,
            "Gbsc::alignmentCost: modulus must divide the cache line "
            "count");
    const WeightedGraph &trg_place = *ctx.trg_place;

    const std::vector<ChunkSpan> spans1 = chunkSpans(ctx, n1, modulus);
    const std::vector<ChunkSpan> spans2 = chunkSpans(ctx, n2, modulus);

    // Sparse Figure 4 cost accumulation: iterate TRG_place edges from
    // the smaller node's chunks; each crossing edge credits its weight
    // to every relative offset placing the two chunks in one frame.
    // Offset i shifts n2, so a collision needs
    // (colour_in_n2 + i) == colour_in_n1 (mod modulus): one kernel
    // call per edge, n1's span as p and n2's as q. The calls run in a
    // fixed order (the smaller node's chunks by id, their neighbours
    // by id), which keeps the sums bit-identical for any weights.
    std::vector<double> cost(modulus, 0.0);
    const bool iterate_first = spans1.size() <= spans2.size();
    const std::vector<ChunkSpan> &mine = iterate_first ? spans1 : spans2;
    const std::vector<ChunkSpan> &theirs = iterate_first ? spans2 : spans1;
    for (const ChunkSpan &my : mine) {
        auto it = theirs.begin();
        for (const auto &[other, weight] :
             trg_place.neighbors(my.chunk)) {
            it = std::lower_bound(it, theirs.end(), other, spanBefore);
            if (it == theirs.end())
                break;
            if (it->chunk != other)
                continue;
            const ChunkSpan &in_n1 = iterate_first ? my : *it;
            const ChunkSpan &in_n2 = iterate_first ? *it : my;
            accumulateColorCollisions(cost, in_n1.color, in_n1.lines,
                                      in_n2.color, in_n2.lines, weight);
        }
    }
    return cost;
}

GbscNode
Gbsc::mergeNodes(const PlacementContext &ctx, const GbscNode &n1,
                 const GbscNode &n2, double *out_best_metric)
{
    const std::uint32_t cache_lines = ctx.cache.lineCount();
    const std::vector<double> cost =
        alignmentCost(ctx, n1, n2, cache_lines);

    // Figure 4 tie rule: the first (smallest) offset wins.
    std::uint32_t best_offset = 0;
    double best_metric = cost[0];
    for (std::uint32_t i = 1; i < cache_lines; ++i) {
        if (cost[i] < best_metric) {
            best_metric = cost[i];
            best_offset = i;
        }
    }
    if (out_best_metric)
        *out_best_metric = best_metric;
    if (ctx.decisions) {
        const ProcId rep1 =
            n1.procs.empty() ? kInvalidProc : n1.procs.front().first;
        const ProcId rep2 =
            n2.procs.empty() ? kInvalidProc : n2.procs.front().first;
        ctx.decisions->recordChoice(DecisionKind::kColor, "gbsc.align",
                                    rep1, rep2, 0.0, best_offset, cost,
                                    "first-smallest-offset");
    }

    GbscNode merged;
    merged.procs = n1.procs;
    merged.procs.reserve(n1.procs.size() + n2.procs.size());
    for (const auto &[proc, offset] : n2.procs)
        merged.procs.emplace_back(proc, (offset + best_offset) %
                                            cache_lines);
    return merged;
}

double
Gbsc::conflictMetric(const PlacementContext &ctx,
                     const std::vector<std::uint32_t> &offsets,
                     const std::vector<bool> *include)
{
    requireGbscInputs(ctx, "Gbsc::conflictMetric");
    require(offsets.size() == ctx.program->procCount(),
            "Gbsc::conflictMetric: offsets size mismatch");
    // The whole-placement analogue of Figure 4's per-merge cost.
    return sharedLineWeight(*ctx.program, ctx.cache, *ctx.trg_place,
                            ctx.chunks, offsets, include);
}

void
Gbsc::validateInputs(const PlacementContext &ctx) const
{
    requireGbscInputs(ctx, name());
}

GbscNode
Gbsc::doMerge(const PlacementContext &ctx, const GbscNode &n1,
              const GbscNode &n2) const
{
    return mergeNodes(ctx, n1, n2);
}

Layout
Gbsc::place(const PlacementContext &ctx) const
{
    ctx.requireBasics(name());
    validateInputs(ctx);
    require(ctx.trg_select != nullptr, "Gbsc: context has no TRG_select");
    require(ctx.trg_select->nodeCount() == ctx.program->procCount(),
            "Gbsc: TRG_select node count mismatch");
    PhaseTimer timer("placement.gbsc");
    const Program &program = *ctx.program;
    const std::uint32_t cache_lines = ctx.cache.lineCount();
    const std::uint32_t line_bytes = ctx.cache.line_bytes;

    // Popular procedures start as singleton nodes at offset zero.
    std::vector<bool> popular_mask;
    if (ctx.popular.empty())
        popular_mask.assign(program.procCount(), true);
    else
        popular_mask = ctx.popular;

    std::vector<GbscNode> nodes(program.procCount());
    for (std::size_t i = 0; i < program.procCount(); ++i) {
        if (popular_mask[i])
            nodes[i].procs.emplace_back(static_cast<ProcId>(i), 0u);
    }

    // Greedy heaviest-edge merging over TRG_select (Section 4.1).
    MergeGraph working(*ctx.trg_select, &popular_mask);
    if (has_tie_seed_)
        working.setTieBreaker(tie_seed_);
    MetricsRegistry &metrics = MetricsRegistry::current();
    const bool log_passes = logEnabled(LogLevel::kDebug);
    std::uint64_t merge_steps = 0;
    while (!working.done()) {
        const MergeGraph::Edge heaviest = working.maxEdge();
        require(heaviest.valid, "Gbsc: inconsistent working graph");
        if (ctx.decisions) {
            DecisionRecord rec;
            rec.kind = DecisionKind::kMerge;
            rec.stage = "gbsc.select";
            rec.a = heaviest.u;
            rec.b = heaviest.v;
            rec.weight = heaviest.weight;
            rec.tie_break = "heaviest-edge-first";
            ctx.decisions->record(rec);
        }
        nodes[heaviest.u] =
            doMerge(ctx, nodes[heaviest.u], nodes[heaviest.v]);
        ++merge_steps;
        if (log_passes) {
            logDebug("gbsc", "merge pass",
                     {{"step", merge_steps},
                      {"u", heaviest.u},
                      {"v", heaviest.v},
                      {"weight", heaviest.weight},
                      {"node_procs", nodes[heaviest.u].procs.size()}});
        }
        nodes[heaviest.v].procs.clear();
        working.mergeInto(heaviest.u, heaviest.v);
    }
    metrics.counter("gbsc.merge_steps").add(merge_steps);
    // One cost array swept per merge.
    metrics.counter("gbsc.alignment_evals").add(merge_steps);
    metrics.counter("gbsc.offset_candidates")
        .add(merge_steps * offsetCount(ctx.cache));

    // --- Section 4.3: produce the final linear list.
    struct Entry
    {
        ProcId proc;
        std::uint32_t start; // cache-relative line offset
        std::uint32_t len;   // lines
    };
    std::vector<Entry> entries;
    for (const GbscNode &node : nodes) {
        for (const auto &[proc, offset] : node.procs) {
            entries.push_back(Entry{
                proc, offset,
                program.sizeInLines(proc, line_bytes)});
        }
    }

    std::vector<ProcId> fillers;
    for (ProcId id : procsByHeat(ctx)) {
        if (!popular_mask[id])
            fillers.push_back(id);
    }
    GapFiller filler(program, fillers, line_bytes);

    Layout layout(program.procCount());
    std::uint64_t cursor = 0; // absolute line of the next free byte
    if (!entries.empty()) {
        // First procedure: prefer offset 0 (the paper notes any
        // starting offset would do); hottest such procedure for
        // determinism.
        auto better_first = [&](const Entry &x, const Entry &y) {
            if (x.start != y.start)
                return x.start < y.start;
            const double hx = ctx.heatOf(x.proc);
            const double hy = ctx.heatOf(y.proc);
            if (hx != hy)
                return hx > hy;
            return x.proc < y.proc;
        };
        std::size_t first = 0;
        for (std::size_t i = 1; i < entries.size(); ++i) {
            if (better_first(entries[i], entries[first]))
                first = i;
        }
        std::vector<bool> emitted(entries.size(), false);

        cursor = entries[first].start;
        layout.setAddress(entries[first].proc, cursor * line_bytes);
        if (ctx.decisions)
            ctx.decisions->recordPlace(
                "gbsc.emit", entries[first].proc,
                layout.address(entries[first].proc),
                ctx.heatOf(entries[first].proc),
                "lowest-offset,hotter,lower-id");
        cursor += entries[first].len;
        std::uint32_t prev_end =
            (entries[first].start + entries[first].len) % cache_lines;
        emitted[first] = true;

        for (std::size_t placed = 1; placed < entries.size(); ++placed) {
            // Smallest positive gap (the paper's gap formula, i.e.
            // (q_SL - p_EL) mod cache_lines); ties go to the hotter
            // procedure.
            std::size_t best = entries.size();
            std::uint32_t best_gap = 0;
            for (std::size_t i = 0; i < entries.size(); ++i) {
                if (emitted[i])
                    continue;
                const std::uint32_t gap =
                    (entries[i].start + cache_lines - prev_end) %
                    cache_lines;
                if (best == entries.size() || gap < best_gap ||
                    (gap == best_gap &&
                     (ctx.heatOf(entries[i].proc) >
                          ctx.heatOf(entries[best].proc) ||
                      (ctx.heatOf(entries[i].proc) ==
                           ctx.heatOf(entries[best].proc) &&
                       entries[i].proc < entries[best].proc)))) {
                    best = i;
                    best_gap = gap;
                }
            }
            // Fill the gap with unpopular procedures (best fit).
            if (best_gap > 0) {
                for (const auto &[f, rel] : filler.fill(best_gap)) {
                    layout.setAddress(f, (cursor + rel) * line_bytes);
                    if (ctx.decisions)
                        ctx.decisions->recordPlace("gbsc.fill", f,
                                                   layout.address(f),
                                                   ctx.heatOf(f),
                                                   "best-fit-filler");
                }
            }
            cursor += best_gap;
            layout.setAddress(entries[best].proc, cursor * line_bytes);
            if (ctx.decisions)
                ctx.decisions->recordPlace(
                    "gbsc.emit", entries[best].proc,
                    layout.address(entries[best].proc),
                    ctx.heatOf(entries[best].proc),
                    "smallest-gap,hotter,lower-id");
            cursor += entries[best].len;
            prev_end = (entries[best].start + entries[best].len) %
                       cache_lines;
            emitted[best] = true;
        }
    }

    // Append every remaining unpopular procedure.
    for (ProcId rest : filler.remaining()) {
        layout.setAddress(rest, cursor * line_bytes);
        if (ctx.decisions)
            ctx.decisions->recordPlace("gbsc.fill", rest,
                                       layout.address(rest),
                                       ctx.heatOf(rest),
                                       "best-fit-filler");
        cursor += program.sizeInLines(rest, line_bytes);
    }
    layout.validate(program, line_bytes);
    timer.stop();
    if (log_passes) {
        logDebug("gbsc", "placement done",
                 {{"merge_steps", merge_steps},
                  {"procs", program.procCount()},
                  {"extent_lines", cursor},
                  {"ms", timer.elapsedMs()}});
    }
    return layout;
}

} // namespace topo
