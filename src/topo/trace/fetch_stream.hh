/**
 * @file
 * FetchStream: the line-granularity expansion of a trace.
 *
 * The cache simulator consumes (procedure, line-within-procedure)
 * references. Expanding a trace once and reusing the stream for every
 * candidate layout is the key performance lever of the evaluation
 * harness: a layout only changes the *mapping* of each reference, not
 * the reference sequence itself.
 *
 * Storage is the trace's runs in "program line id" form — the index of
 * a line in a source-order concatenation of all procedures — with
 * back-to-back repeats of a run folded into one FetchRun. That is
 * 12 bytes per run where one id per fetch would be 4 bytes per fetch:
 * loop-heavy traces repeat a run for most of their fetches, so on the
 * paper suite at scale 1 the runs are 8-57x smaller than per-fetch
 * ids (gcc: 1.8 MB of runs for 24M test fetches). Every reader
 * expands the runs in registers: the replay walks the runs itself,
 * and the other per-fetch readers share
 * forEachFetch().
 *
 * The reference sequence is immutable once built. The one state that
 * changes later is a memo: the first taxonomy replay against a stream
 * computes the stack distances of its first passes (reuse_table.hh),
 * and every later replay, and every copy made after it, reads them.
 */

#ifndef TOPO_TRACE_FETCH_STREAM_HH
#define TOPO_TRACE_FETCH_STREAM_HH

#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "topo/program/program.hh"
#include "topo/trace/trace.hh"

namespace topo
{

/**
 * One trace run in line-id form, repeated @ref repeats times
 * back-to-back: each repeat is @ref line_count consecutive program
 * line ids starting at @ref first_line. Because a run never crosses a
 * procedure boundary, the ids also map to consecutive placed line
 * addresses under any layout — the property the simulator's replay
 * exploits to amortise its per-reference table lookup over a whole run
 * (runs average ~8-13 lines on the paper suite).
 *
 * The repeat count is the decisive compression: loop-heavy traces
 * re-execute the same run back-to-back for 75-85% of all line fetches
 * (paper suite, both inputs), and a repeat of a run short enough to
 * be self-contained in the cache is provably all-hits and leaves the
 * cache state untouched (the cache model's repeatResident()). The
 * replay accounts for such a repeat without replaying it, observed,
 * checkpointed or neither: every fetch of the repeat has stack
 * distance line_count - 1, so the sinks take its hits in closed form.
 */
struct FetchRun
{
    std::uint32_t first_line;
    std::uint32_t line_count;
    std::uint32_t repeats;

    bool operator==(const FetchRun &) const = default;
};

/**
 * The lines one trace event fetches at line size @p line_bytes, as one
 * repeat of a run: bytes [off, off+len) are lines floor(off/L) ..
 * floor((off+len-1)/L) of the event's procedure, so first_line here is
 * a line within the procedure. This is the one expansion rule:
 * FetchStream and the sampler's window block counts both use it.
 */
inline FetchRun
eventLines(const TraceEvent &ev, std::uint32_t line_bytes)
{
    const std::uint32_t first = ev.offset / line_bytes;
    const std::uint64_t end = std::uint64_t{ev.offset} + ev.length - 1;
    // Divide in 32 bits whenever the end fits: 64-bit division is the
    // slower instruction on x86-64, and the sampler's window features
    // pay it once per event.
    const auto last = static_cast<std::uint32_t>(
        end >> 32 ? end / line_bytes
                  : static_cast<std::uint32_t>(end) / line_bytes);
    return FetchRun{first, last - first + 1, 1};
}

/**
 * Line-granularity reference stream for one trace: an immutable
 * sequence plus the lazily built reuseTable() memo.
 */
class FetchStream
{
  public:
    /**
     * Expand a trace into line fetches.
     *
     * Consecutive references to the same line (within one run) are
     * emitted once per line of the run; a run touching bytes
     * [off, off+len) emits lines floor(off/L) .. floor((off+len-1)/L).
     *
     * @param program    Procedure inventory (for bounds checking).
     * @param trace      The run trace.
     * @param line_bytes Cache line size in bytes.
     */
    FetchStream(const Program &program, const Trace &trace,
                std::uint32_t line_bytes);

    /** Line size the stream was expanded at. */
    std::uint32_t lineBytes() const { return line_bytes_; }

    /** Number of line references: the sum of line_count × repeats. */
    std::uint64_t size() const { return size_; }

    /**
     * Always empty: the stream stores no per-fetch ids. Kept only
     * because perfbench adds its capacity to trace.fetch_stream_rss_mb;
     * delete it with the next change to perfbench.
     */
    const std::vector<std::uint32_t> &
    lineIds() const
    {
        static const std::vector<std::uint32_t> kEmpty;
        return kEmpty;
    }

    /**
     * The reference sequence as repeat-compressed runs of consecutive
     * lines: the fetches are the runs' expansions (line_count lines,
     * repeats times each), concatenated.
     */
    const std::vector<FetchRun> &runs() const { return runs_; }

    /**
     * Visit every fetch in order: @p on_run(run) on entering each run,
     * then @p on_fetch(j) per fetch of it, j being the fetch's line in
     * the run (program line id run.first_line + j).
     */
    template <typename OnRun, typename OnFetch>
    void
    forEachFetch(OnRun &&on_run, OnFetch &&on_fetch) const
    {
        for (const FetchRun &run : runs_) {
            on_run(run);
            for (std::uint32_t pass = 0; pass < run.repeats; ++pass) {
                for (std::uint32_t j = 0; j < run.line_count; ++j)
                    on_fetch(j);
            }
        }
    }

    /** Total lines across all procedures at this line size. */
    std::uint32_t
    programLineCount() const
    {
        return static_cast<std::uint32_t>(proc_of_line_.size());
    }

    /** First program line id of @p proc. */
    std::uint32_t lineBase(ProcId proc) const { return line_base_[proc]; }

    /** Procedure owning program line @p id. */
    ProcId procOfLine(std::uint32_t id) const { return proc_of_line_[id]; }

    /**
     * The stack-distance entries of the stream's first passes for a
     * fully-associative shadow of @p shadow_lines lines
     * (reuse_table.hh): built by the first call for that count, under
     * the "reuse_table" span and the trace.reuse_table_builds
     * counter, and returned from the memo afterwards. Thread-safe:
     * concurrent callers wait for one build. The reference stays
     * valid while the stream or a copy of it lives.
     */
    const std::vector<std::uint8_t> &
    reuseTable(std::uint64_t shadow_lines) const;

  private:
    /** reuseTable()'s memo. A copy shares the tables built before it;
     *  nothing is allocated until a table is asked for. */
    struct ReuseMemo
    {
        ReuseMemo() = default;
        ReuseMemo(const ReuseMemo &other);
        ReuseMemo &operator=(const ReuseMemo &other);

        mutable std::mutex mutex;
        /** (shadow line count, table) pairs, in build order. */
        std::vector<std::pair<std::uint64_t,
                              std::shared_ptr<const std::vector<std::uint8_t>>>>
            tables;
    };

    std::uint32_t line_bytes_;
    std::uint64_t size_ = 0;
    std::vector<FetchRun> runs_;
    /** Per procedure: first program line id (size procCount() + 1). */
    std::vector<std::uint32_t> line_base_;
    /** Per program line: the owning procedure. */
    std::vector<ProcId> proc_of_line_;
    mutable ReuseMemo reuse_memo_;
};

} // namespace topo

#endif // TOPO_TRACE_FETCH_STREAM_HH
