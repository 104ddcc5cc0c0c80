#include "topo/placement/cache_coloring.hh"

#include <algorithm>
#include <numeric>

#include "topo/obs/log.hh"
#include "topo/obs/metrics.hh"
#include "topo/obs/phase_timer.hh"
#include "topo/placement/decision_log.hh"
#include "topo/placement/gap_fill.hh"
#include "topo/util/error.hh"

namespace topo
{

namespace
{

constexpr std::uint32_t kNoUnit = ~std::uint32_t{0};

/** A compound of placed procedures with unit-relative line offsets. */
struct Unit
{
    std::vector<std::pair<ProcId, std::uint64_t>> procs;
    std::uint64_t len_lines = 0;
    bool alive = false;
};

/** Working state of one HKC run. */
struct Coloring
{
    const Program &program;
    const WeightedGraph &wcg;
    std::uint32_t line_bytes;
    std::uint32_t cache_lines;
    std::vector<Unit> units;
    std::vector<std::uint32_t> unit_of;
    std::vector<std::uint64_t> start_line; // unit-relative, per proc
    std::vector<bool> popular;
    std::vector<double> cost; // per start colour, one step's scratch
    DecisionLog *decisions = nullptr;

    Coloring(const PlacementContext &ctx)
        : program(*ctx.program),
          wcg(*ctx.wcg),
          line_bytes(ctx.cache.line_bytes),
          cache_lines(ctx.cache.lineCount()),
          unit_of(ctx.program->procCount(), kNoUnit),
          start_line(ctx.program->procCount(), 0),
          cost(cache_lines),
          decisions(ctx.decisions)
    {
        popular.assign(program.procCount(), true);
        if (!ctx.popular.empty())
            popular = ctx.popular;
    }

    std::uint64_t
    lines(ProcId p) const
    {
        return program.sizeInLines(p, line_bytes);
    }

    /**
     * Add to every start colour's cost the collisions of @p q, at
     * unit offset @p q_off, with its call-graph neighbours already
     * placed in unit @p ui. Neighbours are id-sorted, so the FP
     * accumulation order does not depend on hash layout (DESIGN.md §9).
     */
    void
    neighborCost(ProcId q, std::uint64_t q_off, std::uint32_t ui)
    {
        for (const auto &[p, w] : wcg.neighbors(q)) {
            if (unit_of[p] == ui)
                accumulateColorCollisions(cost, start_line[p], lines(p),
                                          q_off, lines(q), w);
        }
    }

    /**
     * The gap past a unit tail of @p tail_len lines whose start colour
     * costs least; among equals, the smallest gap. A decision log gets
     * the cost of every gap.
     */
    std::uint64_t
    chooseGap(std::uint64_t tail_len, const char *stage, ProcId a,
              ProcId b, double weight) const
    {
        const std::uint64_t tail_color = tail_len % cache_lines;
        std::uint64_t best_gap = 0;
        double best_cost = cost[tail_color];
        for (std::uint64_t s = tail_color + 1; s < cache_lines; ++s) {
            if (cost[s] < best_cost) {
                best_cost = cost[s];
                best_gap = s - tail_color;
            }
        }
        for (std::uint64_t s = 0; s < tail_color; ++s) {
            if (cost[s] < best_cost) {
                best_cost = cost[s];
                best_gap = cache_lines - tail_color + s;
            }
        }
        if (decisions) {
            std::vector<double> by_gap(cache_lines);
            for (std::uint64_t g = 0; g < cache_lines; ++g)
                by_gap[g] = cost[(tail_color + g) % cache_lines];
            decisions->recordChoice(DecisionKind::kColor, stage, a, b,
                                    weight, best_gap, by_gap,
                                    "smallest-gap-past-tail");
        }
        return best_gap;
    }

    /** Create a fresh unit holding procedures u then v, adjacent. */
    void
    createUnit(ProcId u, ProcId v, double weight)
    {
        if (decisions) {
            DecisionRecord rec;
            rec.kind = DecisionKind::kMerge;
            rec.stage = "hkc.create";
            rec.a = u;
            rec.b = v;
            rec.weight = weight;
            rec.tie_break = "heaviest-edge-first";
            decisions->record(rec);
        }
        Unit unit;
        unit.alive = true;
        unit.procs.emplace_back(u, 0);
        start_line[u] = 0;
        unit.procs.emplace_back(v, lines(u));
        start_line[v] = lines(u);
        unit.len_lines = lines(u) + lines(v);
        units.push_back(std::move(unit));
        unit_of[u] = unit_of[v] =
            static_cast<std::uint32_t>(units.size() - 1);
    }

    /**
     * Attach unplaced procedure @p q to the unit holding @p anchor,
     * at the tail, with the colour-conflict-minimising gap against
     * q's already-placed call-graph neighbours in that unit.
     */
    void
    attach(ProcId q, ProcId anchor, double weight)
    {
        const std::uint32_t ui = unit_of[anchor];
        Unit &unit = units[ui];
        std::fill(cost.begin(), cost.end(), 0.0);
        neighborCost(q, 0, ui);
        const std::uint64_t start =
            unit.len_lines +
            chooseGap(unit.len_lines, "hkc.attach", q, anchor, weight);
        unit.procs.emplace_back(q, start);
        start_line[q] = start;
        unit.len_lines = start + lines(q);
        unit_of[q] = ui;
    }

    /**
     * Merge the unit of @p v after the unit of @p u, choosing the gap
     * that minimises weighted colour conflicts across all call-graph
     * edges crossing the two units ("already mapped procedures may
     * move as long as they do not conflict with prior decisions").
     */
    void
    mergeUnits(ProcId u, ProcId v, double weight)
    {
        const std::uint32_t ua = unit_of[u];
        const std::uint32_t ub = unit_of[v];
        Unit &a = units[ua];
        Unit &b = units[ub];

        // For every cross edge (p in a, q in b, w): a collision occurs
        // when colour(p-line) == colour(q-line) after b is shifted to
        // start at colour s; accumulate w at the offending s.
        std::fill(cost.begin(), cost.end(), 0.0);
        for (const auto &[q, q_off] : b.procs)
            neighborCost(q, q_off, ua);
        const std::uint64_t shift =
            a.len_lines + chooseGap(a.len_lines, "hkc.merge", u, v, weight);
        for (const auto &[q, q_off] : b.procs) {
            a.procs.emplace_back(q, q_off + shift);
            start_line[q] = q_off + shift;
            unit_of[q] = ua;
        }
        a.len_lines = shift + b.len_lines;
        b.alive = false;
        b.procs.clear();
        b.len_lines = 0;
    }
};

} // namespace

Layout
CacheColoring::place(const PlacementContext &ctx) const
{
    ctx.requireBasics("CacheColoring");
    require(ctx.wcg != nullptr, "CacheColoring: context has no WCG");
    require(ctx.wcg->nodeCount() == ctx.program->procCount(),
            "CacheColoring: WCG node count mismatch");
    PhaseTimer timer("placement.hkc");

    const Program &program = *ctx.program;
    Coloring state(ctx);

    // Popular-procedure WCG edges, heaviest first (ties: smaller pair).
    std::vector<WeightedGraph::Edge> edges;
    for (const WeightedGraph::Edge &e : ctx.wcg->edges()) {
        if (state.popular[e.u] && state.popular[e.v])
            edges.push_back(e);
    }
    std::sort(edges.begin(), edges.end(),
              [](const WeightedGraph::Edge &x, const WeightedGraph::Edge &y) {
                  if (x.weight != y.weight)
                      return x.weight > y.weight;
                  if (x.u != y.u)
                      return x.u < y.u;
                  return x.v < y.v;
              });

    MetricsRegistry &metrics = MetricsRegistry::current();
    const bool log_passes = logEnabled(LogLevel::kDebug);
    std::uint64_t units_created = 0, attaches = 0, unit_merges = 0;
    for (const WeightedGraph::Edge &e : edges) {
        const bool u_placed = state.unit_of[e.u] != kNoUnit;
        const bool v_placed = state.unit_of[e.v] != kNoUnit;
        const char *action = "skip";
        if (!u_placed && !v_placed) {
            state.createUnit(e.u, e.v, e.weight);
            ++units_created;
            action = "create";
        } else if (u_placed && !v_placed) {
            state.attach(e.v, e.u, e.weight);
            ++attaches;
            action = "attach";
        } else if (!u_placed && v_placed) {
            state.attach(e.u, e.v, e.weight);
            ++attaches;
            action = "attach";
        } else if (state.unit_of[e.u] != state.unit_of[e.v]) {
            state.mergeUnits(e.u, e.v, e.weight);
            ++unit_merges;
            action = "merge";
        } else if (ctx.decisions) {
            // Both in the same unit: alignment already decided; skip.
            DecisionRecord rec;
            rec.kind = DecisionKind::kReject;
            rec.stage = "hkc.skip";
            rec.a = e.u;
            rec.b = e.v;
            rec.weight = e.weight;
            rec.tie_break = "alignment-already-fixed";
            ctx.decisions->record(rec);
        }
        if (log_passes) {
            logDebug("hkc", "edge pass",
                     {{"u", e.u},
                      {"v", e.v},
                      {"weight", e.weight},
                      {"action", action}});
        }
    }
    metrics.counter("hkc.edges_considered").add(edges.size());
    metrics.counter("hkc.units_created").add(units_created);
    metrics.counter("hkc.attaches").add(attaches);
    metrics.counter("hkc.unit_merges").add(unit_merges);

    // Popular procedures with no popular edge each get their own unit.
    for (std::size_t i = 0; i < program.procCount(); ++i) {
        const auto id = static_cast<ProcId>(i);
        if (!state.popular[id] || state.unit_of[id] != kNoUnit)
            continue;
        Unit unit;
        unit.alive = true;
        unit.procs.emplace_back(id, 0);
        unit.len_lines = state.lines(id);
        state.units.push_back(std::move(unit));
        state.unit_of[id] = static_cast<std::uint32_t>(
            state.units.size() - 1);
        state.start_line[id] = 0;
    }

    // --- Emission: units ordered by hottest member; internal gaps are
    // preserved (intra-unit colours shift uniformly with the base, so
    // conflict decisions survive) and filled with unpopular code.
    std::vector<std::uint32_t> unit_order;
    for (std::uint32_t uidx = 0; uidx < state.units.size(); ++uidx) {
        if (state.units[uidx].alive)
            unit_order.push_back(uidx);
    }
    auto unit_heat = [&](std::uint32_t uidx) {
        double h = 0.0;
        for (const auto &[p, off] : state.units[uidx].procs)
            h = std::max(h, ctx.heatOf(p));
        return h;
    };
    std::stable_sort(unit_order.begin(), unit_order.end(),
                     [&](std::uint32_t x, std::uint32_t y) {
                         const double hx = unit_heat(x);
                         const double hy = unit_heat(y);
                         if (hx != hy)
                             return hx > hy;
                         return x < y;
                     });

    std::vector<ProcId> fillers;
    for (ProcId id : procsByHeat(ctx)) {
        if (!state.popular.empty() && !state.popular[id])
            fillers.push_back(id);
    }
    GapFiller filler(program, fillers, ctx.cache.line_bytes);

    Layout layout(program.procCount());
    const std::uint32_t line_bytes = ctx.cache.line_bytes;
    std::uint64_t cursor = 0; // in lines
    for (std::uint32_t uidx : unit_order) {
        Unit &unit = state.units[uidx];
        std::sort(unit.procs.begin(), unit.procs.end(),
                  [](const auto &x, const auto &y) {
                      if (x.second != y.second)
                          return x.second < y.second;
                      return x.first < y.first;
                  });
        std::uint64_t local = 0; // next free line within the unit
        for (const auto &[p, off] : unit.procs) {
            if (off > local) {
                // Internal gap: best-fit unpopular fillers.
                for (const auto &[f, rel] : filler.fill(off - local)) {
                    layout.setAddress(f, (cursor + local + rel) *
                                             line_bytes);
                    if (ctx.decisions)
                        ctx.decisions->recordPlace(
                            "hkc.fill", f, layout.address(f),
                            ctx.heatOf(f), "best-fit-filler");
                }
            }
            layout.setAddress(p, (cursor + off) * line_bytes);
            if (ctx.decisions)
                ctx.decisions->recordPlace("hkc.emit", p,
                                           layout.address(p),
                                           ctx.heatOf(p),
                                           "hottest-unit,lower-unit-id");
            local = off + state.lines(p);
        }
        cursor += unit.len_lines;
    }
    // Remaining unpopular procedures, hottest first.
    for (ProcId rest : filler.remaining()) {
        layout.setAddress(rest, cursor * line_bytes);
        if (ctx.decisions)
            ctx.decisions->recordPlace("hkc.fill", rest,
                                       layout.address(rest),
                                       ctx.heatOf(rest),
                                       "best-fit-filler");
        cursor += state.lines(rest);
    }
    layout.validate(program, line_bytes);
    timer.stop();
    if (log_passes) {
        logDebug("hkc", "placement done",
                 {{"units_created", units_created},
                  {"attaches", attaches},
                  {"unit_merges", unit_merges},
                  {"ms", timer.elapsedMs()}});
    }
    return layout;
}

} // namespace topo
