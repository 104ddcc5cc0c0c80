/**
 * @file
 * Differential test of the observed replay. simulateLayout credits the
 * repeats of a cache-resident run in closed form instead of replaying
 * them, also when an armed throw_io fault cuts the runs at its probe
 * indices, and reads stack distances from the stream's reuse table
 * (first passes) or in closed form (later passes). Here a naive
 * reference expands every fetch through forEachFetch, a naive LRU
 * stack, the cache model's access() and the sinks' per-fetch methods,
 * for every model withCacheModel builds and each combination of sinks;
 * the 3C counts, reuse histograms, attribution tallies, conflict
 * matrix and timeline samples must match exactly. With no sinks the
 * walk takes whole runs through its tight loop, so the per-procedure
 * misses compare that loop with the expansion too.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "topo/cache/attribution.hh"
#include "topo/cache/set_associative_cache.hh"
#include "topo/cache/simulate.hh"
#include "topo/cache/taxonomy.hh"
#include "topo/obs/timeline.hh"
#include "topo/resilience/fault.hh"
#include "topo/trace/reuse_table.hh"

namespace topo
{
namespace
{

constexpr std::uint32_t kLineBytes = 32;

/** Which sinks one replay carries. */
struct SinkSet
{
    bool taxonomy = false;
    bool attribution = false;
    bool timeline = false;

    std::string
    describe() const
    {
        std::string name;
        if (taxonomy)
            name += "taxonomy ";
        if (attribution)
            name += "attribution ";
        if (timeline)
            name += "timeline";
        return name.empty() ? "no sinks" : name;
    }
};

/** The sinks of one replay, built for a SinkSet. */
struct Sinks
{
    std::unique_ptr<TaxonomySink> taxonomy;
    std::unique_ptr<AttributionSink> attribution;
    std::unique_ptr<TimelineRecorder> timeline;

    Sinks(const SinkSet &set, const Program &program,
          const Layout &layout, const FetchStream &stream,
          const CacheConfig &config, std::uint64_t window)
    {
        if (set.taxonomy) {
            taxonomy = std::make_unique<TaxonomySink>(
                program, stream.programLineCount(), config);
        }
        if (set.attribution) {
            attribution = std::make_unique<AttributionSink>(
                program, layout, config, kLineBytes);
        }
        if (set.timeline) {
            timeline = std::make_unique<TimelineRecorder>(
                window, program.procCount());
        }
    }

    SimObservers
    observers() const
    {
        SimObservers obs;
        obs.taxonomy = taxonomy.get();
        obs.attribution = attribution.get();
        obs.timeline = timeline.get();
        return obs;
    }
};

/**
 * Procedures of 1 to 40 lines, so runs range from one line to more
 * than twice the largest cache below.
 */
Program
makeProgram()
{
    Program program{"repeats"};
    const std::uint32_t lines[] = {1, 3, 40, 7, 2, 18, 1, 11, 25, 5};
    for (std::size_t i = 0; i < std::size(lines); ++i) {
        program.addProcedure(std::string("p").append(std::to_string(i)),
                             lines[i] * kLineBytes);
    }
    return program;
}

/**
 * Pseudo-random runs, each appended one to six times back to back so
 * the stream folds them into repeats: whole procedures, one-line
 * slices and partial spans.
 */
Trace
makeTrace(const Program &program)
{
    Trace trace(program.procCount());
    std::uint64_t state = 0x9e3779b97f4a7c15ull;
    auto next = [&state](std::uint64_t bound) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        return (state >> 33) % bound;
    };
    for (int event = 0; event < 1500; ++event) {
        const auto proc = static_cast<ProcId>(next(program.procCount()));
        const std::uint32_t size = program.proc(proc).size_bytes;
        std::uint32_t offset = 0;
        std::uint32_t length = size;
        switch (next(3)) {
          case 0: // one line
            offset = static_cast<std::uint32_t>(
                next(size / kLineBytes) * kLineBytes);
            length = kLineBytes;
            break;
          case 1: // a partial span, not line-aligned
            offset = static_cast<std::uint32_t>(next(size));
            length = static_cast<std::uint32_t>(1 + next(size - offset));
            break;
          default: // the whole procedure
            break;
        }
        const std::uint64_t repeats = 1 + next(6);
        for (std::uint64_t r = 0; r < repeats; ++r)
            trace.append(proc, offset, length);
    }
    return trace;
}

/**
 * Runs that overlap one another and outgrow every cache below: sliding
 * windows of 13 to 40 lines over the 40-line procedure, each appended
 * one to four times back to back, interleaved with one-line fetches of
 * the other procedures.
 */
Trace
makeOverlappingTrace(const Program &program)
{
    Trace trace(program.procCount());
    std::uint64_t state = 0x243f6a8885a308d3ull;
    auto next = [&state](std::uint64_t bound) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        return static_cast<std::uint32_t>((state >> 33) % bound);
    };
    const ProcId big = 2; // 40 lines
    for (int event = 0; event < 600; ++event) {
        const std::uint32_t lines = 13 + next(28);
        const std::uint32_t first = next(40 - lines + 1);
        const std::uint32_t repeats = 1 + next(4);
        for (std::uint32_t r = 0; r < repeats; ++r) {
            trace.append(big, first * kLineBytes, lines * kLineBytes);
        }
        const auto other = static_cast<ProcId>(next(program.procCount()));
        trace.append(other, 0, kLineBytes);
    }
    return trace;
}

/**
 * The reuse-table entry of every fetch of @p stream, fetch by fetch
 * from a naive LRU stack of program lines (O(lines) per fetch), for a
 * shadow of @p shadow_lines lines.
 */
std::vector<std::uint8_t>
naiveEntries(const FetchStream &stream, std::uint64_t shadow_lines)
{
    std::vector<std::uint8_t> entries;
    entries.reserve(stream.size());
    std::vector<std::uint32_t> stack; // most recent first
    std::uint32_t first = 0;
    stream.forEachFetch(
        [&](const FetchRun &run) { first = run.first_line; },
        [&](std::uint32_t j) {
            const std::uint32_t line = first + j;
            const auto it = std::find(stack.begin(), stack.end(), line);
            if (it == stack.end()) {
                entries.push_back(
                    static_cast<std::uint8_t>(kReuseColdBucket));
            } else {
                entries.push_back(reuseEntry(
                    static_cast<std::uint64_t>(it - stack.begin()),
                    shadow_lines));
                stack.erase(it);
            }
            stack.insert(stack.begin(), line);
        });
    return entries;
}

/**
 * The naive observed replay: every fetch through the model's access()
 * and the sinks' per-fetch methods, in the order simulate.cc calls
 * them, the taxonomy sink reading @p entries (naiveEntries() for the
 * config's line count). Returns the misses charged to each procedure.
 */
std::vector<std::uint64_t>
naiveReplay(const Program &program, const Layout &layout,
            const FetchStream &stream, const CacheConfig &config,
            const std::vector<std::uint8_t> &entries, const Sinks &sinks)
{
    std::vector<std::uint64_t> misses_by_proc(program.procCount(), 0);
    std::size_t fetch = 0;
    withCacheModel(config, [&](auto &cache) {
        std::uint32_t first = 0;
        ProcId proc = 0;
        std::uint64_t base = 0;
        stream.forEachFetch(
            [&](const FetchRun &run) {
                first = run.first_line;
                proc = stream.procOfLine(first);
                base = layout.startLine(proc, kLineBytes) +
                       (first - stream.lineBase(proc));
            },
            [&](std::uint32_t j) {
                AccessEffect effect;
                const bool hit = cache.access(base + j, &effect);
                if (!hit)
                    ++misses_by_proc[proc];
                if (sinks.attribution) {
                    sinks.attribution->recordAccess(proc, effect.set);
                    if (!hit) {
                        sinks.attribution->recordMiss(proc, effect.set,
                                                      effect.victim);
                    }
                }
                if (sinks.taxonomy) {
                    const TaxonomyEvent event =
                        sinks.taxonomy->classify(proc, entries[fetch], hit);
                    if (sinks.timeline)
                        sinks.timeline->noteTaxonomy(event);
                }
                if (sinks.timeline)
                    sinks.timeline->record(proc, !hit);
                ++fetch;
            });
    });
    if (sinks.timeline)
        sinks.timeline->finish();
    return misses_by_proc;
}

void
expectSameSinks(const Sinks &got, const Sinks &want)
{
    if (want.taxonomy) {
        const TaxonomySink &g = *got.taxonomy;
        const TaxonomySink &w = *want.taxonomy;
        EXPECT_EQ(g.compulsory(), w.compulsory());
        EXPECT_EQ(g.capacity(), w.capacity());
        EXPECT_EQ(g.conflict(), w.conflict());
        EXPECT_EQ(g.reuseHistogram(), w.reuseHistogram());
        EXPECT_EQ(g.compulsoryByProc(), w.compulsoryByProc());
        EXPECT_EQ(g.capacityByProc(), w.capacityByProc());
        EXPECT_EQ(g.conflictByProc(), w.conflictByProc());
    }
    if (want.attribution) {
        const AttributionSink &g = *got.attribution;
        const AttributionSink &w = *want.attribution;
        EXPECT_EQ(g.fetchesByProc(), w.fetchesByProc());
        EXPECT_EQ(g.missesByProc(), w.missesByProc());
        EXPECT_EQ(g.accessesBySet(), w.accessesBySet());
        EXPECT_EQ(g.missesBySet(), w.missesBySet());
        EXPECT_EQ(g.evictions(), w.evictions());
        EXPECT_EQ(g.droppedPairs(), w.droppedPairs());
        const auto all = std::numeric_limits<std::size_t>::max();
        const std::vector<ConflictPair> gp = g.topPairs(all);
        const std::vector<ConflictPair> wp = w.topPairs(all);
        ASSERT_EQ(gp.size(), wp.size());
        for (std::size_t i = 0; i < gp.size(); ++i) {
            EXPECT_EQ(gp[i].evictor, wp[i].evictor) << "pair " << i;
            EXPECT_EQ(gp[i].victim, wp[i].victim) << "pair " << i;
            EXPECT_EQ(gp[i].count, wp[i].count) << "pair " << i;
        }
    }
    if (want.timeline) {
        EXPECT_EQ(got.timeline->taxonomyArmed(),
                  want.timeline->taxonomyArmed());
        const std::vector<TimelineSample> &gs = got.timeline->samples();
        const std::vector<TimelineSample> &ws = want.timeline->samples();
        ASSERT_EQ(gs.size(), ws.size());
        for (std::size_t i = 0; i < gs.size(); ++i) {
            SCOPED_TRACE("window " + std::to_string(i));
            EXPECT_EQ(gs[i].start, ws[i].start);
            EXPECT_EQ(gs[i].accesses, ws[i].accesses);
            EXPECT_EQ(gs[i].misses, ws[i].misses);
            EXPECT_EQ(gs[i].distinct_procs, ws[i].distinct_procs);
            EXPECT_EQ(gs[i].compulsory, ws[i].compulsory);
            EXPECT_EQ(gs[i].capacity, ws[i].capacity);
            EXPECT_EQ(gs[i].conflict, ws[i].conflict);
            EXPECT_EQ(gs[i].reuse_hist, ws[i].reuse_hist);
        }
    }
}

/** Every geometry and policy withCacheModel builds, at 12 and 16 lines. */
std::vector<CacheConfig>
allModels()
{
    const ReplacementPolicy policies[] = {
        ReplacementPolicy::kLru, ReplacementPolicy::kPlru,
        ReplacementPolicy::kSrrip, ReplacementPolicy::kFifo,
        ReplacementPolicy::kRandom};
    std::vector<CacheConfig> models;
    for (const std::uint32_t lines : {16u, 12u}) {
        models.push_back(CacheConfig{lines * kLineBytes, kLineBytes, 1});
        for (const std::uint32_t ways : {2u, 4u}) {
            for (const ReplacementPolicy policy : policies) {
                CacheConfig config{lines * kLineBytes, kLineBytes, ways};
                config.policy = policy;
                models.push_back(config);
            }
        }
    }
    return models;
}

/**
 * Replay @p stream under every config in @p models with each sink set,
 * at 7- and 64-fetch timeline windows, with and without an armed
 * throw_io fault cutting the runs at its probes; simulateLayout must
 * match the naive expansion exactly.
 */
void
expectMatchesNaive(const Program &program, const FetchStream &stream,
                   const Layout &layout,
                   const std::vector<CacheConfig> &models,
                   const std::vector<SinkSet> &sink_sets)
{
    // Stack distances do not depend on the layout or the model: one
    // naive expansion per shadow size serves every replay.
    std::vector<std::pair<std::uint64_t, std::vector<std::uint8_t>>>
        entries_by_lines;
    auto entries_for = [&](std::uint64_t lines)
        -> const std::vector<std::uint8_t> & {
        for (const auto &[l, entries] : entries_by_lines) {
            if (l == lines)
                return entries;
        }
        entries_by_lines.emplace_back(lines, naiveEntries(stream, lines));
        return entries_by_lines.back().second;
    };
    // A 7-fetch window splits repeats at most edges; 64 spans several.
    // An armed throw_io fault that never fires cuts runs at its probes.
    for (const bool probed : {false, true}) {
        if (probed) {
            FaultPlan plan;
            plan.arm(FaultKind::kThrowIo, 0.0, 1);
            installFaultPlan(plan);
        }
        for (const std::uint64_t window : {7u, 64u}) {
            for (const CacheConfig &config : models) {
                const std::vector<std::uint8_t> &entries =
                    entries_for(config.lineCount());
                for (const SinkSet &set : sink_sets) {
                    SCOPED_TRACE(config.describe() + " " +
                                 replacementPolicyName(config.policy) +
                                 ", window " + std::to_string(window) +
                                 ", " + set.describe() +
                                 (probed ? ", probed" : ""));
                    const Sinks want(set, program, layout, stream, config,
                                     window);
                    const std::vector<std::uint64_t> want_misses =
                        naiveReplay(program, layout, stream, config,
                                    entries, want);

                    const Sinks got(set, program, layout, stream, config,
                                    window);
                    const SimObservers observers = got.observers();
                    const SimResult result =
                        simulateLayout(program, layout, stream, config, true,
                                       nullptr, &observers);
                    EXPECT_EQ(result.accesses, stream.size());
                    EXPECT_EQ(result.misses_by_proc, want_misses);
                    expectSameSinks(got, want);
                }
            }
        }
        clearFaultPlan();
    }
}

TEST(ObservedReplayTest, ClosedFormRepeatsMatchNaiveExpansion)
{
    const Program program = makeProgram();
    const Layout layout = Layout::defaultOrder(program, kLineBytes);
    {
        const Trace trace = makeTrace(program);
        const FetchStream stream(program, trace, kLineBytes);

        // The stream must hold each kind of repeat the closed form
        // treats differently: one-line runs (distance 0), runs that fit
        // every cache below, and runs longer than every cache below.
        std::uint64_t one_line = 0, fitting = 0, longer = 0;
        for (const FetchRun &run : stream.runs()) {
            if (run.repeats < 2)
                continue;
            one_line += run.line_count == 1;
            fitting += run.line_count > 1 && run.line_count <= 12;
            longer += run.line_count > 16;
        }
        EXPECT_GT(one_line, 10u);
        EXPECT_GT(fitting, 10u);
        EXPECT_GT(longer, 10u);
        // The stream spans several throw_io probes (one per 4096
        // fetches).
        EXPECT_GT(stream.size(), 4u * 4096u);

        expectMatchesNaive(program, stream, layout, allModels(),
                           {{false, false, false},
                            {true, false, false},
                            {false, true, false},
                            {true, false, true},
                            {false, false, true},
                            {true, true, true}});
    }
    {
        // Overlapping runs longer than the cache: first-pass distances
        // cross run boundaries, and later passes of a run longer than
        // the cache miss, so their closed-form entries meet the 3C
        // split, not only the histogram.
        const Trace trace = makeOverlappingTrace(program);
        const FetchStream stream(program, trace, kLineBytes);
        std::uint64_t long_repeats = 0;
        for (const FetchRun &run : stream.runs())
            long_repeats += run.repeats > 1 && run.line_count > 16;
        EXPECT_GT(long_repeats, 100u);
        EXPECT_GT(stream.size(), 4u * 4096u);

        std::vector<CacheConfig> models;
        for (const std::uint32_t lines : {16u, 12u}) {
            models.push_back(
                CacheConfig{lines * kLineBytes, kLineBytes, 1});
            for (const std::uint32_t ways : {2u, 4u}) {
                for (const ReplacementPolicy policy :
                     {ReplacementPolicy::kLru, ReplacementPolicy::kPlru,
                      ReplacementPolicy::kSrrip}) {
                    CacheConfig config{lines * kLineBytes, kLineBytes,
                                       ways};
                    config.policy = policy;
                    models.push_back(config);
                }
            }
        }
        expectMatchesNaive(program, stream, layout, models,
                           {{false, false, false},
                            {true, false, true},
                            {true, true, true}});
    }
}

} // namespace
} // namespace topo
