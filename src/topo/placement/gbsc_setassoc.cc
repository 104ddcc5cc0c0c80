#include "topo/placement/gbsc_setassoc.hh"

#include <algorithm>

#include "topo/placement/decision_log.hh"
#include "topo/util/error.hh"

namespace topo
{

namespace
{

/**
 * The cache sets a block covers, first, first + 1, ... (mod the set
 * count): every set once when the block is at least as long as the
 * cache has sets.
 */
struct SetRun
{
    std::uint32_t first = 0;
    std::uint32_t count = 0;
};

/**
 * The sets @p x and @p y share, as at most two runs written to
 * @p out; returns how many. Measured from x.first, y starts at rel
 * and may wrap past the circle's end back into x.
 */
int
intersectRuns(SetRun x, SetRun y, std::uint32_t sets, SetRun out[2])
{
    const std::uint32_t rel = (y.first + sets - x.first) % sets;
    int n = 0;
    if (rel < x.count)
        out[n++] = {y.first, std::min(rel + y.count, x.count) - rel};
    if (rel + y.count > sets)
        out[n++] = {x.first, std::min(rel + y.count - sets, x.count)};
    return n;
}

/** Which node holds a procedure, and the sets it covers there. */
struct Membership
{
    int node = 0; // 1 or 2; 0 when in neither
    SetRun run;
};

/** Per-set line-occupancy histogram of a node. */
std::vector<std::uint64_t>
setOccupancy(const PlacementContext &ctx, const GbscNode &node)
{
    const std::uint32_t sets = ctx.cache.setCount();
    std::vector<std::uint64_t> occ(sets, 0);
    for (const auto &[proc, offset] : node.procs) {
        const std::uint32_t len =
            ctx.program->sizeInLines(proc, ctx.cache.line_bytes);
        for (std::uint32_t line = 0; line < len; ++line)
            ++occ[(offset + line) % sets];
    }
    return occ;
}

} // namespace

void
GbscSetAssoc::validateInputs(const PlacementContext &ctx) const
{
    require(ctx.pairs != nullptr,
            "GbscSetAssoc: context has no pair database");
    require(ctx.cache.associativity >= 2,
            "GbscSetAssoc: cache must be set-associative");
    require(ctx.chunks != nullptr && ctx.trg_place != nullptr,
            "GbscSetAssoc: context needs chunks and TRG_place for the "
            "inherited machinery");
}

GbscNode
GbscSetAssoc::doMerge(const PlacementContext &ctx, const GbscNode &n1,
                      const GbscNode &n2) const
{
    const std::uint32_t sets = ctx.cache.setCount();
    const std::uint32_t cache_lines = ctx.cache.lineCount();

    std::vector<Membership> where(ctx.program->procCount());
    for (int node = 1; node <= 2; ++node) {
        for (const auto &[proc, offset] : (node == 1 ? n1 : n2).procs) {
            const std::uint32_t len =
                ctx.program->sizeInLines(proc, ctx.cache.line_bytes);
            where[proc] = {node, {offset % sets, std::min(len, sets)}};
        }
    }

    // Charge D(p,{r,s}) at every alignment putting p, r and s in one
    // set (gbsc_setassoc.hh). With one block moving with n2, the two
    // fixed blocks share a set c and the alignment is c - set(moving);
    // with two moving, they share a set c2 in n2's frame and it is
    // set(fixed) - c2. Each run of shared sets is one kernel call.
    std::vector<double> cost(sets, 0.0);
    for (const PairDatabase::Entry &e : ctx.pairs->entries()) {
        const BlockId ids[3] = {e.p, e.r, e.s};
        Membership m[3];
        int moving = 0;
        bool involved = true;
        for (int k = 0; k < 3; ++k) {
            m[k] = ids[k] < where.size() ? where[ids[k]] : Membership{};
            involved = involved && m[k].node != 0;
            moving += m[k].node == 2;
        }
        if (!involved || moving == 0 || moving == 3)
            continue;
        // The lone block: the one moving, or the one fixed.
        const int lone_node = moving == 1 ? 2 : 1;
        int k = 0;
        while (m[k].node != lone_node)
            ++k;
        const SetRun lone = m[k].run;
        SetRun shared[2];
        const int pieces = intersectRuns(m[(k + 1) % 3].run,
                                         m[(k + 2) % 3].run, sets, shared);
        for (int i = 0; i < pieces; ++i) {
            if (moving == 1)
                accumulateColorCollisions(cost, shared[i].first,
                                          shared[i].count, lone.first,
                                          lone.count, e.weight);
            else
                accumulateColorCollisions(cost, lone.first, lone.count,
                                          shared[i].first,
                                          shared[i].count, e.weight);
        }
    }

    // The pair database is sparse (window cap, pruning), so many
    // alignments tie at the same D cost. Secondary criterion: the
    // chunk-granularity TRG_place cost evaluated at set granularity —
    // a single-interleaver collision cannot evict in a 2-way set, but
    // among equal-D alignments avoiding hot co-residency is strictly
    // safer. Tertiary: raw line overlap (occupancy spreading).
    const std::vector<double> chunk_cost =
        Gbsc::alignmentCost(ctx, n1, n2, sets);
    const std::vector<std::uint64_t> occ1 = setOccupancy(ctx, n1);
    const std::vector<std::uint64_t> occ2 = setOccupancy(ctx, n2);
    std::vector<std::uint64_t> overlap(sets, 0);
    for (std::uint32_t s1 = 0; s1 < sets; ++s1) {
        if (occ1[s1] == 0)
            continue;
        for (std::uint32_t s2 = 0; s2 < sets; ++s2) {
            if (occ2[s2] == 0)
                continue;
            overlap[(s1 + sets - s2) % sets] += occ1[s1] * occ2[s2];
        }
    }

    std::uint32_t best_offset = 0;
    auto better = [&](std::uint32_t a, std::uint32_t b) {
        if (cost[a] != cost[b])
            return cost[a] < cost[b];
        if (chunk_cost[a] != chunk_cost[b])
            return chunk_cost[a] < chunk_cost[b];
        return overlap[a] < overlap[b];
    };
    for (std::uint32_t i = 1; i < sets; ++i) {
        if (better(i, best_offset))
            best_offset = i;
    }
    if (ctx.decisions) {
        const ProcId rep1 =
            n1.procs.empty() ? kInvalidProc : n1.procs.front().first;
        const ProcId rep2 =
            n2.procs.empty() ? kInvalidProc : n2.procs.front().first;
        ctx.decisions->recordChoice(DecisionKind::kColor, "gbsc_sa.align",
                                    rep1, rep2, 0.0, best_offset, cost,
                                    "pair-D,chunk-cost,overlap");
    }

    GbscNode merged;
    merged.procs = n1.procs;
    merged.procs.reserve(n1.procs.size() + n2.procs.size());
    for (const auto &[proc, offset] : n2.procs) {
        merged.procs.emplace_back(proc,
                                  (offset + best_offset) % cache_lines);
    }
    return merged;
}

} // namespace topo
