/**
 * @file
 * Differential tests of the TRG build against a naive Section 3 walk.
 *
 * The reference walk below keeps Q as an explicit vector, counts pairs
 * in a std::map and walks every event in full: no dense matrix, no
 * repeat elision. The production build (dense counts, closed-form
 * repeat streaks, sampled segments, the warm-up's repeat skip) must
 * match it edge for edge and statistic for statistic.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "topo/eval/experiment.hh"
#include "topo/exec/exec.hh"
#include "topo/placement/popularity.hh"
#include "topo/profile/trg_accumulator.hh"
#include "topo/profile/trg_builder.hh"
#include "topo/sampling/sampled_profile.hh"
#include "topo/trace/trace_stats.hh"
#include "topo/workload/paper_suite.hh"
#include "topo/workload/trace_synthesizer.hh"

namespace topo
{
namespace
{

using PairCounts = std::map<std::pair<BlockId, BlockId>, std::uint64_t>;

/** Section 3's Q: an explicit oldest-first vector under a byte budget. */
class NaiveQueue
{
  public:
    NaiveQueue(std::vector<std::uint32_t> sizes, std::uint64_t budget)
        : sizes_(std::move(sizes)), budget_(budget)
    {
    }

    /** Reference @p id; fills @p between when it was resident. */
    bool
    reference(BlockId id, std::vector<BlockId> &between)
    {
        between.clear();
        const auto it = std::find(q_.begin(), q_.end(), id);
        if (it != q_.end()) {
            between.assign(it + 1, q_.end());
            q_.erase(it);
            q_.push_back(id);
            return true;
        }
        q_.push_back(id);
        bytes_ += sizes_[id];
        while (!q_.empty() && bytes_ - sizes_[q_.front()] >= budget_) {
            bytes_ -= sizes_[q_.front()];
            q_.erase(q_.begin());
            ++evictions_;
        }
        return false;
    }

    const std::vector<BlockId> &contents() const { return q_; }
    std::uint64_t evictions() const { return evictions_; }

  private:
    std::vector<std::uint32_t> sizes_;
    std::uint64_t budget_;
    std::vector<BlockId> q_;
    std::uint64_t bytes_ = 0;
    std::uint64_t evictions_ = 0;
};

/** One observer call of the reference walk. */
struct ObservedStep
{
    ProcId proc;
    bool had_prev;
    std::vector<BlockId> between;
    std::vector<BlockId> queue;

    bool
    operator==(const ObservedStep &o) const
    {
        return proc == o.proc && had_prev == o.had_prev &&
               between == o.between && queue == o.queue;
    }
};

/** Everything the reference walk counts. */
struct NaiveResult
{
    PairCounts select;
    PairCounts place;
    std::uint64_t proc_steps = 0;
    std::uint64_t queue_sum = 0;
    std::uint64_t proc_evictions = 0;
    std::uint64_t chunk_evictions = 0;
    std::vector<ObservedStep> steps;
};

/**
 * The plain walk over events [warm, end): events before @p begin only
 * advance the state, events from @p begin on are counted. Q eviction
 * counts cover the counted range only.
 */
class NaiveWalk
{
  public:
    NaiveWalk(const Program &program, const ChunkMap &chunks,
              const TrgBuildOptions &options)
        : program_(program),
          chunks_(chunks),
          options_(options),
          proc_q_(sizesOf(program), options.byte_budget),
          chunk_q_(sizesOf(chunks), options.byte_budget)
    {
    }

    /** Advance through @p ev, crediting only when @p count. */
    void
    step(const TraceEvent &ev, bool count)
    {
        if (options_.popular && !(*options_.popular)[ev.proc])
            return;
        std::vector<BlockId> between;
        const bool proc_pass =
            options_.build_select || static_cast<bool>(options_.observer);
        if (proc_pass && ev.proc != last_proc_) {
            const std::uint64_t before = proc_q_.evictions();
            const bool had_prev = proc_q_.reference(ev.proc, between);
            if (count) {
                if (had_prev && options_.build_select) {
                    for (BlockId q : between)
                        ++out_.select[ordered(ev.proc, q)];
                }
                ++out_.proc_steps;
                out_.queue_sum += proc_q_.contents().size();
                out_.proc_evictions += proc_q_.evictions() - before;
                if (options_.observer) {
                    out_.steps.push_back(
                        {ev.proc, had_prev, between, proc_q_.contents()});
                }
            }
        }
        last_proc_ = ev.proc;
        if (!options_.build_place)
            return;
        const std::uint32_t bytes = chunks_.chunkBytes();
        for (std::uint32_t idx = ev.offset / bytes;
             idx <= (ev.offset + ev.length - 1) / bytes; ++idx) {
            const ChunkId chunk = chunks_.chunkId(ev.proc, idx);
            if (chunk == last_chunk_)
                continue;
            const std::uint64_t before = chunk_q_.evictions();
            const bool had_prev = chunk_q_.reference(chunk, between);
            if (count) {
                if (had_prev) {
                    for (BlockId q : between)
                        ++out_.place[ordered(chunk, q)];
                }
                out_.chunk_evictions += chunk_q_.evictions() - before;
            }
            last_chunk_ = chunk;
        }
    }

    const NaiveResult &result() const { return out_; }
    const std::vector<BlockId> &procQueue() const
    {
        return proc_q_.contents();
    }
    const std::vector<BlockId> &chunkQueue() const
    {
        return chunk_q_.contents();
    }
    ProcId lastProc() const { return last_proc_; }
    ChunkId lastChunk() const { return last_chunk_; }

  private:
    static std::pair<BlockId, BlockId>
    ordered(BlockId a, BlockId b)
    {
        return a < b ? std::make_pair(a, b) : std::make_pair(b, a);
    }

    static std::vector<std::uint32_t>
    sizesOf(const Program &program)
    {
        std::vector<std::uint32_t> sizes;
        for (ProcId p = 0; p < program.procCount(); ++p)
            sizes.push_back(program.proc(p).size_bytes);
        return sizes;
    }

    static std::vector<std::uint32_t>
    sizesOf(const ChunkMap &chunks)
    {
        std::vector<std::uint32_t> sizes;
        for (ChunkId c = 0; c < chunks.chunkCount(); ++c)
            sizes.push_back(chunks.chunkSizeBytes(c));
        return sizes;
    }

    const Program &program_;
    const ChunkMap &chunks_;
    TrgBuildOptions options_;
    NaiveQueue proc_q_;
    NaiveQueue chunk_q_;
    ProcId last_proc_ = kInvalidProc;
    ChunkId last_chunk_ = static_cast<ChunkId>(~0u);
    NaiveResult out_;
};

NaiveResult
naiveBuild(const Program &program, const ChunkMap &chunks,
           const Trace &trace, const TrgBuildOptions &options)
{
    NaiveWalk walk(program, chunks, options);
    for (const TraceEvent &ev : trace.events())
        walk.step(ev, true);
    return walk.result();
}

void
expectGraphMatches(const WeightedGraph &graph, const PairCounts &want,
                   std::size_t nodes, const std::string &what)
{
    ASSERT_EQ(graph.nodeCount(), nodes) << what;
    const std::vector<WeightedGraph::Edge> edges = graph.edges();
    ASSERT_EQ(edges.size(), want.size()) << what;
    auto it = want.begin();
    for (const WeightedGraph::Edge &e : edges) {
        ASSERT_EQ(e.u, it->first.first) << what;
        ASSERT_EQ(e.v, it->first.second) << what;
        ASSERT_EQ(e.weight, static_cast<double>(it->second))
            << what << " edge {" << e.u << "," << e.v << "}";
        ++it;
    }
}

void
expectMatchesNaive(const TrgBuildResult &got, const NaiveResult &want,
                   const Program &program, const ChunkMap &chunks,
                   const TrgBuildOptions &options)
{
    expectGraphMatches(got.select, want.select,
                       options.build_select ? program.procCount() : 0,
                       "TRG_select");
    expectGraphMatches(got.place, want.place,
                       options.build_place ? chunks.chunkCount() : 0,
                       "TRG_place");
    EXPECT_EQ(got.proc_steps, want.proc_steps);
    EXPECT_EQ(got.proc_evictions, want.proc_evictions);
    EXPECT_EQ(got.chunk_evictions, want.chunk_evictions);
    const double avg = want.proc_steps
                           ? static_cast<double>(want.queue_sum) /
                                 static_cast<double>(want.proc_steps)
                           : 0.0;
    EXPECT_EQ(got.avg_queue_procs, avg);
}

/** Serial accumulator walk (the Collector and sampled segments' path). */
TrgBuildResult
accumulate(const Program &program, const ChunkMap &chunks,
           const Trace &trace, const TrgBuildOptions &options)
{
    TrgAccumulator acc(program, chunks, options);
    acc.onTrace(trace);
    return acc.take();
}

/** One suite program's train trace and its default build options. */
struct SuiteCase
{
    BenchmarkCase bench;
    Trace trace{0};
    PopularSet popular;
    std::unique_ptr<ChunkMap> chunks;
    TrgBuildOptions options;

    SuiteCase(const std::string &name, double scale)
        : bench(paperBenchmark(name, scale))
    {
        const EvalOptions eval;
        const Program &program = bench.model.program;
        trace = synthesizeTrace(bench.model, bench.train);
        popular = selectPopular(program, computeTraceStats(program, trace),
                                eval.popularity);
        chunks = std::make_unique<ChunkMap>(program, eval.chunk_bytes);
        options.byte_budget = static_cast<std::uint64_t>(
            eval.q_budget_factor * eval.cache.size_bytes);
        options.popular = &popular.mask;
    }

    const Program &program() const { return bench.model.program; }
};

/** Restores serial execution when a test that raised jobs ends. */
struct JobsGuard
{
    ~JobsGuard() { setExecJobs(1); }
};

TEST(TrgDifferential, SuiteMatchesNaiveWalkAtEveryJobsCount)
{
    // buildTrgs is one serial walk at every jobs count; this pins that
    // the jobs setting cannot change its result on traces of 25K+
    // events (every program at scale 0.05).
    const JobsGuard guard;
    for (const std::string &name : paperBenchmarkNames()) {
        SCOPED_TRACE(name);
        const SuiteCase c(name, 0.05);
        ASSERT_GE(c.trace.size(), 3u * 8192u);
        const NaiveResult want =
            naiveBuild(c.program(), *c.chunks, c.trace, c.options);
        for (const int jobs : {1, 2, 4}) {
            SCOPED_TRACE("jobs=" + std::to_string(jobs));
            setExecJobs(jobs);
            expectMatchesNaive(
                buildTrgs(c.program(), *c.chunks, c.trace, c.options), want,
                c.program(), *c.chunks, c.options);
        }
    }
}

TEST(TrgDifferential, SuiteUsesDenseCountsAndElidesRepeats)
{
    // The default suite build must take the fast path it was written
    // for: dense counts, and a trace where most events repeat.
    const SuiteCase c("gcc", 0.05);
    TrgAccumulator acc(c.program(), *c.chunks, c.options);
    EXPECT_TRUE(acc.densePlaceCounts());
    std::size_t repeats = 0;
    const std::vector<TraceEvent> &events = c.trace.events();
    for (std::size_t i = 1; i < events.size(); ++i)
        repeats += events[i] == events[i - 1];
    EXPECT_GT(repeats, events.size() / 2);
}

TEST(TrgDifferential, WithoutPopularityMask)
{
    // Every procedure and chunk enters Q; gcc's ~9K chunks exceed the
    // dense cap, so TRG_place counts in the FlatMap.
    for (const char *name : {"gcc", "m88ksim"}) {
        SCOPED_TRACE(name);
        SuiteCase c(name, 0.01);
        c.options.popular = nullptr;
        expectMatchesNaive(
            accumulate(c.program(), *c.chunks, c.trace, c.options),
            naiveBuild(c.program(), *c.chunks, c.trace, c.options),
            c.program(), *c.chunks, c.options);
    }
    const SuiteCase gcc("gcc", 0.01);
    TrgBuildOptions all = gcc.options;
    all.popular = nullptr;
    EXPECT_FALSE(
        TrgAccumulator(gcc.program(), *gcc.chunks, all).densePlaceCounts());
}

TEST(TrgDifferential, SelectOrPlaceOff)
{
    const SuiteCase c("perl", 0.01);
    for (const auto &[select, place] :
         {std::pair{true, false}, std::pair{false, true},
          std::pair{false, false}}) {
        SCOPED_TRACE(std::string("select=") + (select ? "on" : "off") +
                     " place=" + (place ? "on" : "off"));
        TrgBuildOptions options = c.options;
        options.build_select = select;
        options.build_place = place;
        const NaiveResult want =
            naiveBuild(c.program(), *c.chunks, c.trace, options);
        expectMatchesNaive(
            accumulate(c.program(), *c.chunks, c.trace, options), want,
            c.program(), *c.chunks, options);
    }
}

TEST(TrgDifferential, ObserverSeesTheNaiveSteps)
{
    SuiteCase c("m88ksim", 0.01);
    std::vector<ObservedStep> seen;
    TrgBuildOptions options = c.options;
    options.observer = [&seen](ProcId proc, bool had_prev,
                               const std::vector<BlockId> &between,
                               const TemporalQueue &q) {
        seen.push_back({proc, had_prev, between, q.contents()});
    };
    const NaiveResult want =
        naiveBuild(c.program(), *c.chunks, c.trace, options);
    expectMatchesNaive(buildTrgs(c.program(), *c.chunks, c.trace, options),
                       want, c.program(), *c.chunks, options);
    ASSERT_EQ(seen.size(), want.steps.size());
    for (std::size_t i = 0; i < seen.size(); ++i)
        ASSERT_TRUE(seen[i] == want.steps[i]) << "observer step " << i;
}

/**
 * A hand-built program and trace rich in repeat streaks: runs longer
 * than the Q budget, single-chunk runs, runs sharing a first chunk
 * with the run before, and streaks broken by unpopular events.
 */
struct RepeatCase
{
    Program program;
    Trace trace{0};
    std::vector<bool> popular;
    std::unique_ptr<ChunkMap> chunks;
    TrgBuildOptions options;

    RepeatCase()
    {
        const ProcId big = program.addProcedure("big", 4096);
        const ProcId mid = program.addProcedure("mid", 1024);
        const ProcId tiny = program.addProcedure("tiny", 64);
        const ProcId other = program.addProcedure("other", 512);
        const ProcId cold = program.addProcedure("cold", 256);
        popular = {true, true, true, true, false};
        chunks = std::make_unique<ChunkMap>(program, 256);
        // Q holds 1 KB: four 256-byte chunks. "big" runs (16 chunks)
        // evict their own first chunk; "mid" runs of 3 chunks fit.
        options.byte_budget = 1024;
        options.popular = &popular;
        trace = Trace(program.procCount());
        const auto streak = [this](ProcId p, std::uint32_t off,
                                   std::uint32_t len, int n) {
            for (int i = 0; i < n; ++i)
                trace.append(p, off, len);
        };
        for (int round = 0; round < 6; ++round) {
            streak(mid, 0, 700, 9);       // 3 chunks, resident
            streak(tiny, 0, 64, 7);       // single chunk
            streak(big, 0, 4096, 5);      // longer than Q
            streak(mid, 256, 512, 4);     // 2 chunks
            streak(mid, 600, 300, 3);     // first chunk = previous last
            streak(other, 0, 512, 2);
            trace.append(cold, 0, 256);   // unpopular: streak continues
            streak(other, 0, 512, 6);
            streak(mid, 0, 1024, 11);     // 4 chunks: exactly Q
            streak(big, 1024, 600, 3 + round);
        }
    }
};

TEST(TrgDifferential, RepeatStreaksLongRunsAndSingleChunks)
{
    const RepeatCase c;
    for (const std::uint64_t budget : {256u, 512u, 1024u, 2048u, 8192u}) {
        SCOPED_TRACE("budget=" + std::to_string(budget));
        TrgBuildOptions options = c.options;
        options.byte_budget = budget;
        const NaiveResult want =
            naiveBuild(c.program, *c.chunks, c.trace, options);
        expectMatchesNaive(accumulate(c.program, *c.chunks, c.trace, options),
                           want, c.program, *c.chunks, options);
    }
}

TEST(TrgDifferential, SampledSegmentsStartingInsideStreaks)
{
    // Unit-weight segments that tile the trace, each warmed up from a
    // few events back: the weighted sum is then an exact count that
    // the naive walk reproduces segment by segment.
    const RepeatCase c;
    const std::size_t n = c.trace.size();
    for (const std::size_t width : {3u, 7u, 10u, 31u}) {
        SCOPED_TRACE("width=" + std::to_string(width));
        SamplePlan plan;
        plan.mode = SampleMode::kSimpoint;
        plan.total_events = n;
        NaiveResult want;
        for (std::size_t b = 0; b < n; b += width) {
            SampleSegment seg;
            seg.begin = b;
            seg.end = std::min(n, b + width);
            seg.warm_begin = b >= 5 ? b - 5 : 0;
            plan.segments.push_back(seg);

            NaiveWalk walk(c.program, *c.chunks, c.options);
            const std::vector<TraceEvent> &events = c.trace.events();
            for (std::size_t i = seg.warm_begin; i < seg.end; ++i)
                walk.step(events[i], i >= seg.begin);
            const NaiveResult &part = walk.result();
            for (const auto &[pair, count] : part.select)
                want.select[pair] += count;
            for (const auto &[pair, count] : part.place)
                want.place[pair] += count;
            want.proc_steps += part.proc_steps;
            want.proc_evictions += part.proc_evictions;
            want.chunk_evictions += part.chunk_evictions;
        }
        const SampledProfileResult got = buildSampledProfile(
            c.program, *c.chunks, c.trace, plan, c.options);
        expectGraphMatches(got.trg_select, want.select,
                           c.program.procCount(), "TRG_select");
        expectGraphMatches(got.trg_place, want.place,
                           c.chunks->chunkCount(), "TRG_place");
        EXPECT_EQ(got.proc_steps, want.proc_steps);
        // Warm-up evictions belong to no segment.
        EXPECT_EQ(got.proc_evictions, want.proc_evictions);
        EXPECT_EQ(got.chunk_evictions, want.chunk_evictions);
    }
}

TEST(TrgDifferential, HashBackingAboveTheDenseCap)
{
    // 40 procedures of 64 chunks each: 2560 popular chunks need a
    // 26 MB matrix, over the 16 MB cap, so TRG_place counts in the
    // FlatMap while TRG_select (40 procedures) stays dense.
    static_assert(2560ULL * 2559 / 2 * 8 > kDenseCountCapBytes);
    Program program;
    for (int i = 0; i < 40; ++i)
        program.addProcedure("p" + std::to_string(i), 64 * 256);
    const ChunkMap chunks(program, 256);
    Trace trace(program.procCount());
    std::uint64_t state = 7;
    for (int i = 0; i < 6000; ++i) {
        state = state * 6364136223846793005ULL + 1442695040888963407ULL;
        const auto proc = static_cast<ProcId>((state >> 33) % 40);
        const auto offset = static_cast<std::uint32_t>((state >> 20) % 60) * 256;
        const auto length = static_cast<std::uint32_t>((state >> 12) % 900) + 1;
        for (std::uint64_t r = 0; r <= (state >> 50) % 4; ++r)
            trace.append(proc, offset, length);
    }
    TrgBuildOptions options;
    options.byte_budget = 4096;
    ASSERT_FALSE(TrgAccumulator(program, chunks, options).densePlaceCounts());
    const NaiveResult want = naiveBuild(program, chunks, trace, options);
    expectMatchesNaive(accumulate(program, chunks, trace, options), want,
                       program, chunks, options);
}

/** A warmed accumulator's reported state must equal the naive walk's. */
void
expectWarmState(const TrgAccumulator &warmed, const NaiveWalk &naive,
                const std::string &where)
{
    EXPECT_EQ(warmed.procQueue(), naive.procQueue()) << where;
    EXPECT_EQ(warmed.chunkQueue(), naive.chunkQueue()) << where;
    EXPECT_EQ(warmed.lastProc(), naive.lastProc()) << where;
    EXPECT_EQ(warmed.lastChunk(), naive.lastChunk()) << where;
}

TEST(TrgAccumulatorWarm, ShardBoundaryStatesMatchTheFullWalk)
{
    // One warm-up from event 0, checked at every boundary i*n/k of an
    // even k-way split of the trace.
    const RepeatCase repeat;
    const SuiteCase suite("m88ksim", 0.01);
    struct Input
    {
        const Program &program;
        const ChunkMap &chunks;
        const Trace &trace;
        const TrgBuildOptions &options;
    };
    for (const Input &in :
         {Input{repeat.program, *repeat.chunks, repeat.trace,
                repeat.options},
          Input{suite.program(), *suite.chunks, suite.trace,
                suite.options}}) {
        const std::vector<TraceEvent> &events = in.trace.events();
        for (const std::size_t count : {2u, 3u, 7u, 16u, 61u}) {
            TrgAccumulator warmed(in.program, in.chunks, in.options);
            NaiveWalk naive(in.program, in.chunks, in.options);
            std::size_t done = 0;
            for (std::size_t i = 1; i < count; ++i) {
                for (const std::size_t stop = i * events.size() / count;
                     done < stop; ++done) {
                    warmed.warm(events[done]);
                    naive.step(events[done], false);
                }
                expectWarmState(warmed, naive,
                                std::to_string(count) +
                                    "-way boundary at event " +
                                    std::to_string(done));
            }
        }
    }
}

TEST(TrgAccumulatorWarm, SampledSegmentStartStatesMatchTheFullWalk)
{
    // The planner's own segments on a suite trace, and hand-placed
    // warm-ups that end inside repeat streaks.
    const SuiteCase suite("m88ksim", 0.05);
    SamplingOptions sampling;
    sampling.mode = SampleMode::kSimpoint;
    const SamplePlan plan = buildSamplePlan(
        suite.program(), suite.trace, CacheConfig::paperDefault().line_bytes,
        sampling);
    ASSERT_FALSE(plan.segments.empty());
    for (const SampleSegment &seg : plan.segments) {
        TrgAccumulator warmed(suite.program(), *suite.chunks, suite.options);
        NaiveWalk naive(suite.program(), *suite.chunks, suite.options);
        for (std::size_t i = seg.warm_begin; i < seg.begin; ++i) {
            warmed.warm(suite.trace.events()[i]);
            naive.step(suite.trace.events()[i], false);
        }
        expectWarmState(warmed, naive,
                        "segment at event " + std::to_string(seg.begin));
        // The warm-up itself counts nothing.
        const TrgBuildResult counted = warmed.take();
        EXPECT_EQ(counted.select.edgeCount(), 0u);
        EXPECT_EQ(counted.place.edgeCount(), 0u);
        EXPECT_EQ(counted.proc_steps, 0u);
        EXPECT_EQ(counted.proc_evictions, 0u);
        EXPECT_EQ(counted.chunk_evictions, 0u);
    }

    const RepeatCase repeat;
    for (std::size_t warm = 0; warm < 12; ++warm) {
        TrgAccumulator warmed(repeat.program, *repeat.chunks,
                              repeat.options);
        NaiveWalk naive(repeat.program, *repeat.chunks, repeat.options);
        for (std::size_t i = warm; i < repeat.trace.size(); ++i) {
            warmed.warm(repeat.trace.events()[i]);
            naive.step(repeat.trace.events()[i], false);
            expectWarmState(warmed, naive,
                            "warm-up [" + std::to_string(warm) + ", " +
                                std::to_string(i + 1) + ")");
        }
    }
}

} // namespace
} // namespace topo
