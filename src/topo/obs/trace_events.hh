/**
 * @file
 * Chrome trace-event collection: a process-wide buffer of timeline
 * events serialisable as Trace Event Format JSON, loadable in
 * Perfetto (ui.perfetto.dev) or chrome://tracing.
 *
 * Two kinds of tracks coexist:
 *  - wall-clock phase spans ('X' complete events, microseconds since
 *    the log was created) emitted by PhaseTimer when collection is
 *    enabled — pid kWallPid;
 *  - block-time counter series ('C' events whose timestamps are fetch
 *    block indices, a pseudo-time) exported by TimelineRecorder — one
 *    pid per track so Perfetto renders them as separate processes.
 *
 * Collection is off by default; --trace-out=FILE enables it and dumps
 * the buffer on tool exit. When disabled, the only cost at call sites
 * is one relaxed atomic load.
 */

#ifndef TOPO_OBS_TRACE_EVENTS_HH
#define TOPO_OBS_TRACE_EVENTS_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "topo/obs/json.hh"

namespace topo
{

/** One trace event (a subset of the Trace Event Format fields). */
struct ChromeTraceEvent
{
    std::string name;
    /** 'X' complete span, 'C' counter sample, 'M' metadata. */
    char ph = 'X';
    /** Microseconds (wall tracks) or block index (counter tracks). */
    double ts = 0.0;
    /** Span duration; meaningful for 'X' only. */
    double dur = 0.0;
    int pid = 1;
    int tid = 1;
    /** Numeric args ('C' series values). */
    std::vector<std::pair<std::string, double>> args;
    /** String arg ("name" of 'M' process_name events); unused if empty. */
    std::string arg_name;
};

/** Process-wide trace-event buffer. */
class ChromeTraceLog
{
  public:
    /** pid of the wall-clock phase-span track. */
    static constexpr int kWallPid = 1;
    /** First pid handed out for block-time counter tracks. */
    static constexpr int kFirstCounterPid = 2;

    /** The process-wide log used by PhaseTimer and the tools. */
    static ChromeTraceLog &global();

    /** Enable/disable collection (cheap enabled() probe for hot sites). */
    void setEnabled(bool enabled)
    {
        enabled_.store(enabled, std::memory_order_relaxed);
    }

    bool
    enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /** Microseconds from the log's origin to @p tp. */
    double tsFrom(std::chrono::steady_clock::time_point tp) const;

    /**
     * Chrome `tid` of the calling thread: 1 for the first thread that
     * emits (the main thread in practice), then sequential in
     * first-emission order. Pool workers therefore render as separate
     * lanes under the wall-clock track in Perfetto.
     */
    static int currentTid();

    /**
     * Append a wall-clock span on the phase track (thread-safe;
     * mutex-guarded emission). The span lands in the calling thread's
     * lane (currentTid()), and the first span from a new thread also
     * emits a thread_name metadata event naming the lane.
     */
    void addSpan(const std::string &name, double ts_us, double dur_us);

    /**
     * Append a counter sample. @p track groups related series under
     * one pseudo-process; the first use of a track names it with a
     * metadata event and allocates its pid.
     *
     * @param track  Track (pseudo-process) name, e.g. "timeline:gbsc".
     * @param name   Counter name, e.g. "miss_rate".
     * @param ts     Timestamp in the track's timebase (block index).
     * @param value  Sample value.
     */
    void addCounter(const std::string &track, const std::string &name,
                    double ts, double value);

    /** Number of buffered events (metadata included). */
    std::size_t size() const;

    /** Drop all events and counter tracks (tests). */
    void clear();

    /** {"traceEvents": [...], "displayTimeUnit": "ms"}. */
    JsonValue toJson() const;

    /** Write toJson() to @p path; throws TopoError on I/O error. */
    void writeFile(const std::string &path) const;

  private:
    ChromeTraceLog();

    /** Emit thread_name metadata for @p tid once (mutex_ held). */
    void announceThreadLocked(int tid);

    std::atomic<bool> enabled_{false};
    std::chrono::steady_clock::time_point origin_;
    mutable std::mutex mutex_;
    std::vector<ChromeTraceEvent> events_;
    /** track name -> pid of already-announced counter tracks. */
    std::vector<std::pair<std::string, int>> counter_tracks_;
    /** tids whose thread_name metadata has been emitted. */
    std::vector<int> announced_tids_;
};

} // namespace topo

#endif // TOPO_OBS_TRACE_EVENTS_HH
