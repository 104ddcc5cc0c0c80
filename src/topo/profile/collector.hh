/**
 * @file
 * ProfileCollector: a one-pass, trace-free profiling frontend.
 *
 * Section 4.4 describes generating TRGs during program execution with
 * instrumentation (their instrumented binaries ran ~25x slower). This
 * class is the library-side half of that design: an instrumented
 * program (or a simulator) calls onRun() for every execution run, and
 * at the end the collector hands back everything the placement
 * pipeline needs — WCG, TRG_select, TRG_place, dynamic statistics —
 * without ever materialising the trace in memory.
 */

#ifndef TOPO_PROFILE_COLLECTOR_HH
#define TOPO_PROFILE_COLLECTOR_HH

#include <memory>

#include "topo/profile/trace_profile.hh"
#include "topo/profile/trg_accumulator.hh"

namespace topo
{

/** Options of a collection session. */
struct CollectorOptions
{
    /** Q byte budget (typically 2x the target cache size). */
    std::uint64_t byte_budget = 2 * 8 * 1024;
    /** Chunk size for TRG_place. */
    std::uint32_t chunk_bytes = 256;
    /** Build the procedure-granularity TRG_select. */
    bool build_select = true;
    /** Build the chunk-granularity TRG_place. */
    bool build_place = true;
    /** Build the call-transition WCG. */
    bool build_wcg = true;
    /**
     * Optional popularity mask applied to the TRGs (the WCG and the
     * statistics always see every procedure, as the popular set is
     * usually *derived* from them).
     */
    const std::vector<bool> *popular = nullptr;
};

/**
 * Streaming profiler: feed runs, take the profile.
 */
class ProfileCollector
{
  public:
    /**
     * @param program Procedure inventory (must outlive the collector).
     * @param options Session options.
     */
    ProfileCollector(const Program &program,
                     const CollectorOptions &options);

    ~ProfileCollector();
    ProfileCollector(const ProfileCollector &) = delete;
    ProfileCollector &operator=(const ProfileCollector &) = delete;

    /** Record one execution run (the instrumentation callback). */
    void onRun(ProcId proc, std::uint32_t offset, std::uint32_t length);

    /** Record a whole-procedure execution. */
    void onProcedure(ProcId proc);

    /** Replay a stored trace (convenience / testing). */
    void onTrace(const Trace &trace);

    /** Chunk map the collector built for TRG_place. */
    const ChunkMap &chunks() const { return *chunks_; }

    /** Runs recorded so far. */
    std::uint64_t runCount() const { return session_.stats.total_runs; }

    /**
     * End the session and surrender the profile (no pair database).
     * The collector resets and can record a fresh session afterwards.
     */
    TraceProfile take();

  private:
    const Program &program_;
    CollectorOptions options_;
    std::unique_ptr<ChunkMap> chunks_;
    std::unique_ptr<TrgAccumulator> trgs_;
    /** The session's statistics and WCG; the TRGs live in trgs_. */
    TraceProfile session_;
    ProcId last_proc_ = kInvalidProc;

    void resetSession();
};

} // namespace topo

#endif // TOPO_PROFILE_COLLECTOR_HH
