#include "topo/cache/simulate.hh"

#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

#include "topo/cache/attribution.hh"
#include "topo/cache/set_associative_cache.hh"
#include "topo/cache/taxonomy.hh"
#include "topo/obs/log.hh"
#include "topo/obs/metrics.hh"
#include "topo/obs/phase_timer.hh"
#include "topo/obs/timeline.hh"
#include "topo/resilience/fault.hh"
#include "topo/util/error.hh"

namespace topo
{

namespace
{

/**
 * Per-thread line-address table of the replay. It only grows, so after
 * the first (largest) replay on a thread the steady-state loop performs
 * no heap allocation (asserted by attribution_test's allocation hooks).
 */
thread_local std::vector<std::uint32_t> t_addr_of;

/** The compiled variants of the replay loop. */
enum class ReplayMode
{
    /** No hooks and no attribution: the run-batched fast path. */
    kBatched,
    /** One cache probe per fetch, for per-procedure attribution,
     *  checkpoint/resume/stop, throw_io fault probes and the sinks.
     *  Resident repeats are credited in closed form, and those events
     *  cut the run walk at their fetch indices. */
    kPerFetch,
};

/** Probe the throw_io fault stream every this many line fetches. */
constexpr std::uint64_t kFaultMask = (1ULL << 12) - 1; // 4096

/**
 * Shared replay loop; Cache is any model withCacheModel() builds, all
 * exposing accessRunBatch() and access(). The batched and
 * per-fetch variants are compiled separately, so the default path pays
 * nothing for resilience hooks or observation sinks.
 */
template <typename Cache, ReplayMode kMode>
SimResult
replay(const Program &program, const Layout &layout,
       const FetchStream &stream, Cache &cache, bool attribute,
       const SimControl *control, std::uint64_t fingerprint,
       const SimObservers *observers)
{
    // Precompute the placed address of every program line so the hot
    // loop is one table load per run + one cache probe per reference.
    // The stream's runs name program line ids; this table is the only
    // part that changes between candidate layouts.
    // 32-bit entries keep the table half the size (it is the loop's
    // only randomly-indexed load besides the frame array, and at
    // paper-suite scale it overflows L1); a 2^32-line layout span
    // would be a 256 GiB text segment, so the check never fires in
    // practice.
    if (t_addr_of.size() < stream.programLineCount())
        t_addr_of.resize(stream.programLineCount());
    std::uint32_t *const addr_of = t_addr_of.data();
    for (std::size_t i = 0; i < program.procCount(); ++i) {
        const ProcId proc = static_cast<ProcId>(i);
        const std::uint64_t base =
            layout.startLine(proc, stream.lineBytes());
        const std::uint32_t first = stream.lineBase(proc);
        const std::uint32_t last =
            stream.lineBase(static_cast<ProcId>(i + 1));
        require(base + (last - first) <= ~std::uint32_t{0},
                "simulateLayout: layout spans more than 2^32 cache "
                "lines");
        for (std::uint32_t id = first; id < last; ++id)
            addr_of[id] =
                static_cast<std::uint32_t>(base + (id - first));
    }

    SimResult result;
    const std::uint64_t total = stream.size();
    if constexpr (kMode == ReplayMode::kBatched) {
        // Plain unattributed replay — the configuration every
        // placement-evaluation call hits — goes through the cache's
        // run-batched access loop (branchless on the direct-mapped
        // model), probing each run's consecutive line addresses from a
        // single table lookup and skipping cache-resident repeats
        // outright. Batched replays never resume, so the batch always
        // covers the entire stream.
        const FetchRun *const runs = stream.runs().data();
        result.misses = cache.accessRunBatch(
            stream.runs().size(), [addr_of, runs](std::size_t r) {
                return std::tuple<std::uint64_t, std::uint32_t,
                                  std::uint32_t>(
                    addr_of[runs[r].first_line], runs[r].line_count,
                    runs[r].repeats);
            });
        result.accesses = total;
    } else {
        if (attribute)
            result.misses_by_proc.assign(program.procCount(), 0);
        std::uint64_t start = 0;
        if (control != nullptr && control->resume != nullptr) {
            const SimCheckpoint &ckpt = *control->resume;
            require(ckpt.fingerprint == fingerprint,
                    "resume: checkpoint was taken from a different "
                    "run (inputs, layout, or cache geometry differ)");
            require(ckpt.cursor <= stream.size(),
                    "resume: checkpoint cursor beyond the stream");
            cache.restoreStateWords(ckpt.cache_words);
            result.misses = ckpt.misses;
            if (attribute) {
                requireData(ckpt.misses_by_proc.size() ==
                                program.procCount(),
                            "resume: checkpoint attribution does not "
                            "match the program");
                result.misses_by_proc = ckpt.misses_by_proc;
            }
            start = ckpt.cursor;
            logInfo("simulate", "resumed from checkpoint",
                    {{"cursor", start}, {"misses", result.misses}});
        }

        auto write_ckpt = [&](std::uint64_t at) {
            SimCheckpoint ckpt;
            ckpt.fingerprint = fingerprint;
            ckpt.cursor = at;
            ckpt.misses = result.misses;
            ckpt.cache_words = cache.stateWords();
            ckpt.misses_by_proc = result.misses_by_proc;
            saveCheckpoint(control->checkpoint_path, ckpt);
            MetricsRegistry::current()
                .counter("sim.checkpoints_written")
                .add();
        };
        // The current run's first line id, placed line and procedure.
        std::uint32_t run_first = 0;
        std::uint64_t run_addr = 0;
        ProcId proc = 0;
        // Line j of the current run through the cache and the sinks.
        auto fetch = [&](std::uint32_t j) {
            AccessEffect effect;
            const bool hit = cache.access(run_addr + j, &effect);
            if (!hit) {
                ++result.misses;
                if (attribute)
                    ++result.misses_by_proc[proc];
            }
            if (observers != nullptr) {
                if (observers->attribution != nullptr) {
                    observers->attribution->recordAccess(proc, effect.set);
                    if (!hit) {
                        observers->attribution->recordMiss(
                            proc, effect.set, effect.victim);
                    }
                }
                if (observers->taxonomy != nullptr) {
                    // Classify before timeline->record(): record() may
                    // close the window this fetch belongs to.
                    const TaxonomyEvent event =
                        observers->taxonomy->record(proc, run_first + j,
                                                    hit);
                    if (observers->timeline != nullptr)
                        observers->timeline->noteTaxonomy(event);
                }
                if (observers->timeline != nullptr)
                    observers->timeline->record(proc, !hit);
            }
        };
        // Credit @p passes all-hit passes of the current run in bulk.
        auto credit = [&](std::uint32_t len, std::uint32_t passes) {
            cache.creditRepeats(run_addr, len, passes);
            if (observers == nullptr)
                return;
            if (observers->attribution != nullptr) {
                for (std::uint32_t j = 0; j < len; ++j) {
                    observers->attribution->recordAccess(
                        proc, cache.mapSet(run_addr + j), passes);
                }
            }
            const std::uint64_t hits = std::uint64_t{len} * passes;
            std::optional<std::uint8_t> bucket;
            if (observers->taxonomy != nullptr)
                bucket = observers->taxonomy->recordRepeats(len, hits);
            if (observers->timeline != nullptr)
                observers->timeline->recordHits(proc, hits, bucket);
        };
        // The run walk replays fetches [cursor, end) and keeps its place
        // (run r, first fetch run_start) between calls. A run's first
        // pass, or the rest of the pass a resume or cut fell in, goes
        // fetch by fetch; the whole passes after it are credited when
        // the cache model proves them resident, as the batch skips them.
        std::size_t r = 0;
        std::uint64_t run_start = 0;
        std::uint64_t cursor = start;
        auto walk = [&](std::uint64_t end) {
            while (cursor < end) {
                const FetchRun &run = stream.runs()[r];
                const std::uint32_t len = run.line_count;
                const std::uint64_t run_end =
                    run_start + std::uint64_t{len} * run.repeats;
                if (run_end <= cursor) { // left behind, or before a resume
                    run_start = run_end;
                    ++r;
                    continue;
                }
                // (pass, line) of a fetch; only cut runs pay a division.
                auto split = [&](std::uint64_t at) {
                    return std::pair{
                        static_cast<std::uint32_t>((at - run_start) / len),
                        static_cast<std::uint32_t>((at - run_start) % len)};
                };
                auto [pass, line] =
                    cursor == run_start ? std::pair{0u, 0u} : split(cursor);
                const auto [last_pass, last_line] =
                    end < run_end ? split(end) : std::pair{run.repeats, 0u};
                const bool elide =
                    run.repeats > 1 && cache.repeatResident(len);
                run_first = run.first_line;
                run_addr = addr_of[run_first];
                proc = stream.procOfLine(run_first);
                for (; pass < last_pass; ++pass, line = 0) {
                    if (elide && pass != 0 && line == 0) {
                        credit(len, last_pass - pass);
                        pass = last_pass;
                        break;
                    }
                    for (; line < len; ++line)
                        fetch(line);
                }
                for (; line < last_line; ++line)
                    fetch(line);
                cursor = std::min(end, run_end);
            }
        };
        // Walk to the next fault probe, checkpoint or stop, or to the
        // stream's end, and fire the events there in that order.
        const bool probe = faultArmed(FaultKind::kThrowIo);
        const std::uint64_t every =
            control != nullptr && !control->checkpoint_path.empty()
                ? control->checkpoint_every
                : 0;
        const std::uint64_t stop =
            control != nullptr && control->stop_after != 0
                ? control->stop_after
                : ~std::uint64_t{0};
        require(stop > start, "simulateLayout: stop_after must lie past "
                              "the resume cursor");
        while (cursor < total && result.completed) {
            std::uint64_t end = std::min(total, stop);
            if (probe)
                end = std::min(end, (cursor | kFaultMask) + 1);
            if (every != 0) {
                end = cursor + std::min(end - cursor,
                                        every - (cursor - start) % every);
            }
            walk(end);
            if (probe && (cursor & kFaultMask) == 0)
                faultMaybeThrowIo("simulate");
            if (every != 0 && (cursor - start) % every == 0 &&
                cursor != total)
                write_ckpt(cursor);
            result.completed = cursor != stop;
        }
        if (!result.completed && !control->checkpoint_path.empty())
            write_ckpt(cursor);
        result.accesses = cursor;
    }
    // Caches start empty and lines never invalidate, so each miss
    // either filled an empty frame or displaced a valid line.
    result.evictions = result.misses - cache.validLineCount();
    return result;
}

template <typename Cache>
SimResult
replayDispatch(const Program &program, const Layout &layout,
               const FetchStream &stream, Cache &cache, bool attribute,
               const SimControl *control, std::uint64_t fingerprint,
               const SimObservers *observers)
{
    // Only a per-fetch hook leaves the batched path; logging and
    // tracing never do.
    const bool observed = observers != nullptr && observers->any();
    if (attribute || control != nullptr || observed ||
        faultArmed(FaultKind::kThrowIo)) {
        return replay<Cache, ReplayMode::kPerFetch>(
            program, layout, stream, cache, attribute, control,
            fingerprint, observed ? observers : nullptr);
    }
    return replay<Cache, ReplayMode::kBatched>(
        program, layout, stream, cache, false, nullptr, fingerprint,
        nullptr);
}

} // namespace

std::uint64_t
simFingerprint(const Program &program, const Layout &layout,
               const FetchStream &stream, const CacheConfig &config,
               bool attribute)
{
    std::uint64_t fp = fingerprintMix(0, config.size_bytes);
    fp = fingerprintMix(fp, config.line_bytes);
    fp = fingerprintMix(fp, config.associativity);
    fp = fingerprintMix(fp,
                        static_cast<std::uint64_t>(config.policy));
    fp = fingerprintMix(fp, config.policy_seed);
    fp = fingerprintMix(fp, stream.size());
    fp = fingerprintMix(fp, stream.lineBytes());
    fp = fingerprintMix(fp, attribute ? 1 : 0);
    fp = fingerprintMix(fp, program.procCount());
    for (std::size_t i = 0; i < program.procCount(); ++i)
        fp = fingerprintMix(fp, layout.address(static_cast<ProcId>(i)));
    return fp;
}

SimResult
simulateLayout(const Program &program, const Layout &layout,
               const FetchStream &stream, const CacheConfig &config,
               bool attribute, const SimControl *control,
               const SimObservers *observers)
{
    require(stream.lineBytes() == config.line_bytes,
            "simulateLayout: stream line size does not match cache config");
    const bool observed = observers != nullptr && observers->any();
    require(!observed || control == nullptr,
            "simulateLayout: taxonomy/attribution/timeline observers do "
            "not combine with checkpoint/resume (observer state is not "
            "checkpointed)");
    const std::uint64_t fingerprint =
        simFingerprint(program, layout, stream, config, attribute);
    PhaseTimer timer("simulate");
    SimResult result;
    withCacheModel(config, [&](auto &cache) {
        result = replayDispatch(program, layout, stream, cache,
                                attribute, control, fingerprint,
                                observers);
    });
    if (observed && observers->timeline != nullptr)
        observers->timeline->finish();
    timer.stop();

    MetricsRegistry &metrics = MetricsRegistry::current();
    metrics.counter("cache.simulations").add();
    metrics.counter("cache.accesses").add(result.accesses);
    metrics.counter("cache.misses").add(result.misses);
    metrics.counter("cache.evictions").add(result.evictions);
    if (observed && observers->attribution != nullptr) {
        const AttributionSink &sink = *observers->attribution;
        metrics.counter("attribution.evictions").add(sink.evictions());
        metrics.counter("attribution.dropped_pairs")
            .add(sink.droppedPairs());
        metrics.gauge("attribution.tracked_pairs")
            .set(static_cast<double>(sink.trackedPairs()));
    }
    if (observed && observers->taxonomy != nullptr) {
        const TaxonomySink &sink = *observers->taxonomy;
        metrics.counter("taxonomy.compulsory").add(sink.compulsory());
        metrics.counter("taxonomy.capacity").add(sink.capacity());
        metrics.counter("taxonomy.conflict").add(sink.conflict());
        const auto &hist = sink.reuseHistogram();
        for (std::size_t b = 0; b < hist.size(); ++b) {
            if (hist[b] == 0)
                continue;
            metrics.counter(reuseBucketMetricName(b)).add(hist[b]);
        }
    }
    if (logEnabled(LogLevel::kDebug)) {
        logDebug("simulate", "replay finished",
                 {{"cache", config.describe()},
                  {"accesses", result.accesses},
                  {"misses", result.misses},
                  {"evictions", result.evictions},
                  {"miss_rate", result.missRate()},
                  {"completed", result.completed},
                  {"ms", timer.elapsedMs()}});
    }
    return result;
}

double
layoutMissRate(const Program &program, const Layout &layout,
               const FetchStream &stream, const CacheConfig &config)
{
    return simulateLayout(program, layout, stream, config).missRate();
}

} // namespace topo
