/**
 * @file
 * Streaming TRG construction.
 *
 * Section 4.4: "instead of processing traces we generate the TRGs
 * during program execution using instrumentation techniques". The
 * TrgAccumulator is that path — it consumes execution runs one at a
 * time (e.g. from an instrumentation callback) and produces exactly
 * the graphs the batch builder produces from a stored trace. The batch
 * buildTrgs() is a thin wrapper over it.
 *
 * The walk counts pairs into a dense triangular matrix over
 * popular-compacted ids (a FlatMap above kDenseCountCapBytes) and
 * credits a streak of identical events in closed form; see DESIGN.md
 * §10 "TRG build: dense counts and repeat elision".
 */

#ifndef TOPO_PROFILE_TRG_ACCUMULATOR_HH
#define TOPO_PROFILE_TRG_ACCUMULATOR_HH

#include "topo/profile/trg_builder.hh"

namespace topo
{

/**
 * Largest dense pair-count matrix one TRG may use, in bytes. A graph
 * over more compacted blocks than fit (about 2K at 8 bytes a cell)
 * counts into its FlatMap instead.
 */
inline constexpr std::uint64_t kDenseCountCapBytes = 16ULL << 20;

/**
 * Integer pair counts of one TRG during a session: a dense
 * triangular uint64 matrix over compacted block ids when it fits
 * in kDenseCountCapBytes, otherwise the graph's FlatMap. Counts become
 * a WeightedGraph once, in take(). Counts are integers below 2^53
 * either way, so both backings yield bit-identical weights.
 */
class TrgPairCounts
{
  public:
    TrgPairCounts() = default;

    /**
     * @param compact    Per-block compacted id; TemporalQueue::kNone
     *                   for blocks that can never be credited.
     * @param node_count Node count of the graph take() returns.
     */
    TrgPairCounts(std::vector<BlockId> compact, std::size_t node_count);

    /** Add @p count to pair {u, v} (u != v, both compactable). */
    void
    add(BlockId u, BlockId v, std::uint64_t count)
    {
        if (!dense_) {
            graph_.addWeight(u, v, static_cast<double>(count));
            return;
        }
        cellsFor()[cell(compact_[u], compact_[v])] += count;
    }

    /** Add 1 to {id, q} for every q after @p id in @p queue. */
    void
    addAfter(BlockId id, const TemporalQueue &queue)
    {
        if (!dense_) {
            for (BlockId q = queue.after(id); q != TemporalQueue::kNone;
                 q = queue.after(q))
                graph_.addWeight(id, q, 1.0);
            return;
        }
        std::uint64_t *cells = cellsFor();
        const BlockId c = compact_[id];
        for (BlockId q = queue.after(id); q != TemporalQueue::kNone;
             q = queue.after(q))
            ++cells[cell(c, compact_[q])];
    }

    /** Add every count of @p other (same compaction) into this. */
    void merge(const TrgPairCounts &other);

    /** Surrender the counts as a graph and start empty. */
    WeightedGraph take();

    /** True when the dense matrix backs the counts. */
    bool dense() const { return dense_; }

    /** True when @p id has a compacted id. */
    bool
    covers(BlockId id) const
    {
        return id < compact_.size() && compact_[id] != TemporalQueue::kNone;
    }

  private:
    /** Cell of the unordered pair {a, b} of compacted ids, a != b. */
    static std::size_t
    cell(BlockId a, BlockId b)
    {
        const std::size_t lo = a < b ? a : b;
        const std::size_t hi = a < b ? b : a;
        return hi * (hi - 1) / 2 + lo;
    }

    /** The matrix, allocated zeroed on first use in a session. */
    std::uint64_t *
    cellsFor()
    {
        if (cells_.empty())
            cells_.assign(cell_count_, 0);
        return cells_.data();
    }

    std::vector<BlockId> compact_;
    /** Compacted id -> block id. */
    std::vector<BlockId> blocks_;
    std::size_t node_count_ = 0;
    std::size_t cell_count_ = 0;
    bool dense_ = false;
    std::vector<std::uint64_t> cells_;
    WeightedGraph graph_;
};

/** Incremental TRG builder; one instance per profiling session. */
class TrgAccumulator
{
  public:
    /**
     * @param program Procedure inventory (must outlive the
     *                accumulator).
     * @param chunks  Chunk map (must outlive the accumulator).
     * @param options Build options; the observer hook, popularity
     *                filter, and graph selection behave exactly as in
     *                buildTrgs().
     */
    TrgAccumulator(const Program &program, const ChunkMap &chunks,
                   const TrgBuildOptions &options);

    /** Feed one execution run (the instrumentation callback). */
    void onRun(ProcId proc, std::uint32_t offset, std::uint32_t length);

    /** Feed every run of a stored trace. */
    void onTrace(const Trace &trace);

    /**
     * Seed the session's queue and run-deduplication state so onRun
     * continues exactly where a serial walk left off at a shard
     * boundary (parallel TRG builds; see planTraceShards). Must be
     * called on a fresh session, before any onRun.
     *
     * @param proc_queue  Procedure queue contents, oldest first.
     * @param chunk_queue Chunk queue contents, oldest first.
     * @param last_proc   Procedure of the preceding (popular) run, or
     *                    kInvalidProc at trace start.
     * @param last_chunk  Last chunk referenced, or ~0u at trace start.
     */
    void seedState(const std::vector<BlockId> &proc_queue,
                   const std::vector<BlockId> &chunk_queue,
                   ProcId last_proc, ChunkId last_chunk);

    /**
     * Fold another accumulator's session into this one: TRG edge
     * weights add element-wise (including both sides' open repeat
     * streaks), step/eviction/queue-size statistics sum. Associative,
     * and with shards seeded via seedState the left-to-right fold over
     * shard accumulators equals the serial walk exactly (weights are
     * integer-valued counts below 2^53, so FP addition is exact). Both
     * sessions must use the same popularity mask. The other
     * accumulator's session state is left untouched.
     */
    void merge(const TrgAccumulator &other);

    /** Number of procedure-granularity steps processed so far. */
    std::uint64_t procSteps() const { return result_.proc_steps; }

    /** True when TRG_place counts into the dense matrix. */
    bool densePlaceCounts() const { return place_.dense(); }

    /**
     * Finish the session and surrender the graphs. The accumulator is
     * left empty; further onRun calls start a fresh session.
     */
    TrgBuildResult take();

  private:
    const Program &program_;
    const ChunkMap &chunks_;
    TrgBuildOptions options_;
    TrgBuildResult result_;
    TrgPairCounts select_;
    TrgPairCounts place_;
    TemporalQueue proc_q_;
    TemporalQueue chunk_q_;
    /** Between-list handed to the observer (observer path only). */
    std::vector<BlockId> between_;
    std::uint64_t queue_size_sum_ = 0;
    /** Evictions folded in from merged shard accumulators. */
    std::uint64_t merged_proc_evictions_ = 0;
    std::uint64_t merged_chunk_evictions_ = 0;
    ProcId last_proc_ = kInvalidProc;
    ChunkId last_chunk_;
    /** Last fully walked popular event; a repeat of it may be elided. */
    TraceEvent last_event_;
    /** Its chunk range [first_chunk_, first_chunk_ + run_chunks_). */
    ChunkId first_chunk_ = 0;
    std::uint32_t run_chunks_ = 0;
    /** Repeats of last_event_ not yet credited. */
    std::uint64_t streak_ = 0;

    void reset();
    void creditStreak(ChunkId first, std::uint32_t chunks,
                      std::uint64_t repeats);
    void flushStreak();
};

} // namespace topo

#endif // TOPO_PROFILE_TRG_ACCUMULATOR_HH
