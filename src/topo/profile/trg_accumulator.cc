#include "topo/profile/trg_accumulator.hh"

#include "topo/util/error.hh"

namespace topo
{

namespace
{

std::vector<std::uint32_t>
procSizes(const Program &program)
{
    std::vector<std::uint32_t> sizes(program.procCount());
    for (std::size_t i = 0; i < program.procCount(); ++i)
        sizes[i] = program.proc(static_cast<ProcId>(i)).size_bytes;
    return sizes;
}

std::vector<std::uint32_t>
chunkSizes(const ChunkMap &chunks)
{
    std::vector<std::uint32_t> sizes(chunks.chunkCount());
    for (std::size_t c = 0; c < chunks.chunkCount(); ++c)
        sizes[c] = chunks.chunkSizeBytes(static_cast<ChunkId>(c));
    return sizes;
}

bool
isPopular(const TrgBuildOptions &options, ProcId proc)
{
    return !options.popular || (*options.popular)[proc];
}

/** Compacted ids of the procedures that can enter the procedure Q. */
TrgPairCounts
selectCounts(const Program &program, const TrgBuildOptions &options)
{
    if (!options.build_select)
        return TrgPairCounts({}, 0);
    std::vector<BlockId> compact(program.procCount(), TemporalQueue::kNone);
    BlockId next = 0;
    for (ProcId p = 0; p < program.procCount(); ++p) {
        if (isPopular(options, p))
            compact[p] = next++;
    }
    return TrgPairCounts(std::move(compact), program.procCount());
}

/** Compacted ids of the chunks that can enter the chunk Q. */
TrgPairCounts
placeCounts(const Program &program, const ChunkMap &chunks,
            const TrgBuildOptions &options)
{
    if (!options.build_place)
        return TrgPairCounts({}, 0);
    std::vector<BlockId> compact(chunks.chunkCount(), TemporalQueue::kNone);
    BlockId next = 0;
    for (ProcId p = 0; p < program.procCount(); ++p) {
        if (!isPopular(options, p))
            continue;
        for (std::uint32_t idx = 0; idx < chunks.chunksOf(p); ++idx)
            compact[chunks.chunkId(p, idx)] = next++;
    }
    return TrgPairCounts(std::move(compact), chunks.chunkCount());
}

} // namespace

TrgPairCounts::TrgPairCounts(std::vector<BlockId> compact,
                             std::size_t node_count)
    : compact_(std::move(compact)),
      node_count_(node_count),
      graph_(node_count)
{
    for (BlockId b = 0; b < compact_.size(); ++b) {
        if (compact_[b] != TemporalQueue::kNone)
            blocks_.push_back(b);
    }
    const std::uint64_t n = blocks_.size();
    const std::uint64_t cells = n < 2 ? 0 : n * (n - 1) / 2;
    dense_ = cells > 0 &&
             cells <= kDenseCountCapBytes / sizeof(std::uint64_t);
    if (dense_)
        cell_count_ = static_cast<std::size_t>(cells);
}

WeightedGraph
TrgPairCounts::take()
{
    WeightedGraph out(node_count_);
    if (!dense_) {
        std::swap(out, graph_);
        return out;
    }
    if (cells_.empty())
        return out;
    // Row hi of the triangle holds the pairs {lo, hi} with lo < hi.
    const std::uint64_t *cell = cells_.data();
    for (std::size_t hi = 1; hi < blocks_.size(); ++hi) {
        for (std::size_t lo = 0; lo < hi; ++lo, ++cell) {
            if (*cell != 0)
                out.addWeight(blocks_[lo], blocks_[hi],
                              static_cast<double>(*cell));
        }
    }
    cells_ = std::vector<std::uint64_t>();
    return out;
}

TrgAccumulator::TrgAccumulator(const Program &program,
                               const ChunkMap &chunks,
                               const TrgBuildOptions &options)
    : program_(program),
      chunks_(chunks),
      options_(options),
      proc_q_(procSizes(program), options.byte_budget),
      chunk_q_(chunkSizes(chunks), options.byte_budget),
      last_chunk_(static_cast<ChunkId>(~0u))
{
    require(options_.byte_budget > 0, "TrgAccumulator: zero byte budget");
    if (options_.popular) {
        require(options_.popular->size() == program.procCount(),
                "TrgAccumulator: popularity mask size mismatch");
    }
    select_ = selectCounts(program, options_);
    place_ = placeCounts(program, chunks, options_);
    reset();
}

void
TrgAccumulator::reset()
{
    result_ = TrgBuildResult{};
    select_.take(); // discard the counts
    place_.take();
    proc_q_.clear();
    chunk_q_.clear();
    queue_size_sum_ = 0;
    proc_evictions_ = 0;
    chunk_evictions_ = 0;
    last_proc_ = kInvalidProc;
    last_chunk_ = static_cast<ChunkId>(~0u);
    last_event_ = TraceEvent{};
    streak_ = 0;
}

void
TrgAccumulator::flushStreak()
{
    if (streak_ == 0)
        return;
    // Each repeat of a resident k-chunk run credits every pair of its
    // chunks twice, once from each end (DESIGN.md §10).
    for (std::uint32_t i = 1; i < run_chunks_; ++i) {
        for (std::uint32_t j = 0; j < i; ++j)
            place_.add(first_chunk_ + j, first_chunk_ + i, 2 * streak_);
    }
    streak_ = 0;
}

template <bool kCount>
void
TrgAccumulator::walk(ProcId proc, std::uint32_t offset, std::uint32_t length)
{
    require(proc < program_.procCount(), "TrgAccumulator: invalid proc");
    require(length > 0, "TrgAccumulator: zero-length run");
    require(static_cast<std::uint64_t>(offset) + length <=
                program_.proc(proc).size_bytes,
            "TrgAccumulator: run exceeds procedure bounds");
    if (!isPopular(options_, proc))
        return;

    // A repeat of the last walked event whose first chunk is still
    // resident is a fixed point of the walk: no proc step, Q unchanged,
    // +2 on every chunk pair of the run. Count it (warm skips it);
    // credit at the end.
    const TraceEvent event{proc, offset, length};
    if (event == last_event_ &&
        (!options_.build_place || chunk_q_.contains(first_chunk_))) {
        if constexpr (kCount)
            ++streak_;
        return;
    }
    flushStreak();

    const bool need_proc_pass = options_.build_select ||
                                static_cast<bool>(options_.observer);
    if (need_proc_pass && proc != last_proc_) {
        if constexpr (kCount) {
            bool had_prev = false;
            if (options_.observer) {
                had_prev = proc_q_.reference(proc, between_);
                if (had_prev && options_.build_select) {
                    for (BlockId q : between_)
                        select_.add(proc, q, 1);
                }
            } else {
                if (proc_q_.contains(proc))
                    select_.addAfter(proc, proc_q_);
                proc_q_.touch(proc);
            }
            ++result_.proc_steps;
            queue_size_sum_ += proc_q_.size();
            if (options_.observer)
                options_.observer(proc, had_prev, between_, proc_q_);
        } else {
            proc_q_.touch(proc);
        }
    }
    last_proc_ = proc;
    last_event_ = event;

    if (options_.build_place) {
        const std::uint32_t chunk_bytes = chunks_.chunkBytes();
        const std::uint32_t first = offset / chunk_bytes;
        const std::uint32_t last = (offset + length - 1) / chunk_bytes;
        first_chunk_ = chunks_.chunkId(proc, first);
        run_chunks_ = last - first + 1;
        for (std::uint32_t idx = first; idx <= last; ++idx) {
            const ChunkId chunk = chunks_.chunkId(proc, idx);
            if (chunk == last_chunk_)
                continue;
            if constexpr (kCount) {
                if (chunk_q_.contains(chunk))
                    place_.addAfter(chunk, chunk_q_);
            }
            chunk_q_.touch(chunk);
            last_chunk_ = chunk;
        }
    }
}

void
TrgAccumulator::onRun(ProcId proc, std::uint32_t offset,
                      std::uint32_t length)
{
    walk<true>(proc, offset, length);
}

void
TrgAccumulator::warm(const TraceEvent &event)
{
    const std::uint64_t proc_before = proc_q_.evictionCount();
    const std::uint64_t chunk_before = chunk_q_.evictionCount();
    walk<false>(event.proc, event.offset, event.length);
    proc_evictions_ -= proc_q_.evictionCount() - proc_before;
    chunk_evictions_ -= chunk_q_.evictionCount() - chunk_before;
}

void
TrgAccumulator::onTrace(const Trace &trace)
{
    require(trace.procCount() == program_.procCount(),
            "TrgAccumulator: program/trace mismatch");
    for (const TraceEvent &ev : trace.events())
        onRun(ev.proc, ev.offset, ev.length);
}

TrgBuildResult
TrgAccumulator::take()
{
    flushStreak();
    result_.select = select_.take();
    result_.place = place_.take();
    result_.avg_queue_procs =
        result_.proc_steps
            ? static_cast<double>(queue_size_sum_) /
                  static_cast<double>(result_.proc_steps)
            : 0.0;
    result_.proc_evictions = proc_evictions_ + proc_q_.evictionCount();
    result_.chunk_evictions = chunk_evictions_ + chunk_q_.evictionCount();
    TrgBuildResult out = std::move(result_);
    reset();
    return out;
}

} // namespace topo
