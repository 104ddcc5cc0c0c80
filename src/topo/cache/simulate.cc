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

/** Probe the throw_io fault stream every this many line fetches. */
constexpr std::uint64_t kFaultMask = (1ULL << 12) - 1; // 4096

/**
 * The replay loop; Cache is any model withCacheModel() builds, all
 * exposing access(), accessRun(), repeatResident() and
 * creditRepeats(). One run walk serves every replay: without sinks,
 * each run that lies wholly between two events (checkpoint, stop,
 * throw_io probe) goes through a tight whole-run loop, and only a run
 * an event falls inside, or one a sink watches, goes fetch by fetch.
 */
template <typename Cache>
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
    // Resident repeats are credited, not replayed. True LRU's stamps
    // move as the skipped passes would move them only under a
    // SimControl, the one case in which cache state leaves the replay
    // (checkpoint bytes): victim choice reads only the stamps' order
    // within a set, which an uncredited repeat keeps.
    const bool move_stamps = control != nullptr;
    // Stack distances come from the stream's reuse table, built on
    // the first taxonomy replay of the stream and shared by every
    // later one: an entry per first-pass fetch, and for a later
    // pass of a run of L lines the closed form, distance L - 1.
    const TaxonomySink *const taxonomy =
        observers != nullptr ? observers->taxonomy : nullptr;
    const std::uint8_t *const reuse_table =
        taxonomy != nullptr
            ? stream.reuseTable(taxonomy->shadowLines()).data()
            : nullptr;
    // The current run's placed line and procedure, and the reuse
    // entries of its fetches: first_pass[j] on the first pass,
    // repeat_entry on later ones.
    std::uint64_t run_addr = 0;
    ProcId proc = 0;
    const std::uint8_t *first_pass = nullptr;
    std::uint8_t repeat_entry = 0;
    // Line j of pass `pass` of the current run through the cache
    // and the sinks.
    auto fetch = [&](std::uint32_t j, std::uint32_t pass) {
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
                    observers->taxonomy->classify(
                        proc, pass == 0 ? first_pass[j] : repeat_entry,
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
        if (move_stamps)
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
    // (run r, first fetch run_start, first reuse-table entry
    // table_start) between calls.
    const FetchRun *const runs = stream.runs().data();
    std::size_t r = 0;
    std::uint64_t run_start = 0;
    std::size_t table_start = 0;
    std::uint64_t cursor = start;
    // Without sinks, the runs that end by `end` go through one tight
    // loop: a pass per accessRun(), then the other passes credited or
    // replayed under repeatResident(). The run index, its first fetch
    // and the misses live in locals, since the cache's std::uint64_t
    // stores would otherwise force them to memory. table_start is left
    // behind: only a taxonomy sink reads it, and a sink keeps the walk
    // off this loop.
    auto whole_runs = [&](std::uint64_t end) {
        std::size_t i = r;
        std::uint64_t i_start = run_start;
        std::uint64_t misses = 0;
        std::uint64_t *const by_proc =
            attribute ? result.misses_by_proc.data() : nullptr;
        while (i_start < end) {
            const FetchRun &run = runs[i];
            const std::uint32_t len = run.line_count;
            const std::uint64_t run_end =
                i_start + std::uint64_t{len} * run.repeats;
            if (run_end > end)
                break;
            const std::uint64_t base = addr_of[run.first_line];
            std::uint64_t run_misses = cache.accessRun(base, len);
            if (run.repeats > 1 && cache.repeatResident(len)) {
                if (move_stamps)
                    cache.creditRepeats(base, len, run.repeats - 1);
            } else {
                for (std::uint32_t pass = 1; pass < run.repeats; ++pass)
                    run_misses += cache.accessRun(base, len);
            }
            misses += run_misses;
            if (by_proc != nullptr)
                by_proc[stream.procOfLine(run.first_line)] += run_misses;
            i_start = run_end;
            ++i;
        }
        result.misses += misses;
        r = i;
        run_start = i_start;
        cursor = i_start;
    };
    // A run that a resume or an event falls inside, or that a sink
    // watches, goes fetch by fetch: its first pass, or the rest of the
    // pass the walk entered it in. The whole passes after that are
    // credited when the cache model proves them resident, as
    // whole_runs skips them.
    auto walk = [&](std::uint64_t end) {
        while (cursor < end) {
            if (observers == nullptr && cursor == run_start) {
                whole_runs(end);
                if (cursor == end)
                    break;
            }
            const FetchRun &run = runs[r];
            const std::uint32_t len = run.line_count;
            const std::uint64_t run_end =
                run_start + std::uint64_t{len} * run.repeats;
            if (run_end <= cursor) { // left behind, or before a resume
                run_start = run_end;
                table_start += len;
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
            run_addr = addr_of[run.first_line];
            proc = stream.procOfLine(run.first_line);
            if (reuse_table != nullptr) {
                first_pass = reuse_table + table_start;
                repeat_entry =
                    reuseEntry(len - 1, taxonomy->shadowLines());
            }
            for (; pass < last_pass; ++pass, line = 0) {
                if (elide && pass != 0 && line == 0) {
                    credit(len, last_pass - pass);
                    pass = last_pass;
                    break;
                }
                for (; line < len; ++line)
                    fetch(line, pass);
            }
            for (; line < last_line; ++line)
                fetch(line, pass);
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
    // Caches start empty and lines never invalidate, so each miss
    // either filled an empty frame or displaced a valid line.
    result.evictions = result.misses - cache.validLineCount();
    return result;
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
        result = replay(program, layout, stream, cache, attribute,
                        control, fingerprint,
                        observed ? observers : nullptr);
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
