/**
 * @file
 * Process-wide metrics: named counters, gauges, and histograms.
 *
 * Every pipeline phase registers its counters here; the four CLI tools
 * dump the registry as JSON via --metrics-out so runs are comparable
 * and machine-readable (the bench harness emits the same shape). A
 * metric reference obtained from the registry stays valid for the
 * registry's lifetime — hot code fetches the reference once, outside
 * its loop, and bumps it cheaply.
 *
 * Concurrency guarantee: counter/gauge updates are relaxed atomics;
 * Histogram::observe() takes the histogram's mutex around the WHOLE
 * update — running summary, observation counter, and the algorithm-R
 * reservoir slot draw are one atomic step, so concurrent observers
 * never tear the counter/slot pair and the reservoir always holds a
 * valid sample of the observed stream. What the mutex cannot give is
 * cross-run reproducibility under contention: the interleaving of
 * observers (and therefore which samples survive in the reservoir) is
 * scheduler-dependent. Deterministic parallel runs therefore record
 * into a per-task registry (MetricsScope / MetricsRegistry::current())
 * where each histogram has exactly one writer, and merge the task
 * registries into the parent in fixed task order at join — that
 * sequence is independent of thread scheduling, so `--jobs N`
 * snapshots are byte-identical to `--jobs 1`.
 */

#ifndef TOPO_OBS_METRICS_HH
#define TOPO_OBS_METRICS_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "topo/obs/json.hh"
#include "topo/util/stats.hh"

namespace topo
{

/** Monotonically increasing integer metric. */
class Counter
{
  public:
    void
    add(std::uint64_t delta = 1)
    {
        value_.fetch_add(delta, std::memory_order_relaxed);
    }

    std::uint64_t
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<std::uint64_t> value_{0};
};

/** Last-write-wins floating-point metric. */
class Gauge
{
  public:
    void
    set(double value)
    {
        value_.store(value, std::memory_order_relaxed);
    }

    double
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<double> value_{0.0};
};

/**
 * Distribution metric backed by RunningStats plus a bounded reservoir
 * for quantile estimates. The reservoir keeps kReservoirSize uniform
 * samples (algorithm R with a deterministic internal generator, so
 * snapshots are reproducible run-to-run); up to that many observations
 * the quantiles are exact.
 */
class Histogram
{
  public:
    /** Reservoir capacity (memory bound per histogram). */
    static constexpr std::size_t kReservoirSize = 1024;

    Histogram();

    /** Record one observation. */
    void observe(double value);

    /** Copy of the accumulated summary. */
    RunningStats stats() const;

    /**
     * Percentile estimate in [0, 100] from the reservoir (linear
     * interpolation between order statistics); 0 when empty.
     */
    double quantile(double pct) const;

    /** Copy of the current reservoir sample (tests). */
    std::vector<double> reservoirSnapshot() const;

    /**
     * Fold another histogram into this one: exact summary combine
     * (RunningStats::merge) plus a deterministic reservoir merge that
     * replays the other reservoir's samples through this histogram's
     * own algorithm-R stream. Quantiles after a merge are an
     * approximation of the combined stream; the result depends only
     * on merge order, never on thread scheduling.
     */
    void mergeFrom(const Histogram &other);

  private:
    mutable std::mutex mutex_;
    RunningStats stats_;
    std::vector<double> reservoir_;
    /** Observations seen (reservoir replacement denominator). */
    std::uint64_t seen_ = 0;
    /** xorshift64 state for reservoir replacement (fixed seed). */
    std::uint64_t rng_state_ = 0x9e3779b97f4a7c15ULL;
};

/**
 * Named registry of counters, gauges, and histograms.
 *
 * Metric names are dotted paths ("cache.misses",
 * "phase.placement.gbsc.ms"); a name is bound to one metric kind for
 * the registry's lifetime (re-registering under another kind throws).
 */
class MetricsRegistry
{
  public:
    /** The process-wide registry used by default everywhere. */
    static MetricsRegistry &global();

    /**
     * The calling thread's active registry: the innermost MetricsScope
     * on this thread, or global() when none is active. Pipeline code
     * records through current() so parallel tasks can redirect their
     * metrics into a private registry and merge it deterministically.
     */
    static MetricsRegistry &current();

    /**
     * Fold @p other into this registry in name order: counters add,
     * gauges last-write-wins, histograms Histogram::mergeFrom. Call
     * once per task, in fixed task order, after the parallel join.
     */
    void mergeFrom(const MetricsRegistry &other);

    /** Find-or-create a counter. */
    Counter &counter(const std::string &name);
    /** Find-or-create a gauge. */
    Gauge &gauge(const std::string &name);
    /** Find-or-create a histogram. */
    Histogram &histogram(const std::string &name);

    /** True when a metric of any kind exists under @p name. */
    bool has(const std::string &name) const;

    /** Drop every metric (tests and tools reuse the global registry). */
    void clear();

    /**
     * Snapshot as JSON:
     * {"topo_metrics": 1, "counters": {...}, "gauges": {...},
     *  "histograms":
     *      {name: {count,sum,mean,min,max,stddev,p50,p90,p99}}}
     */
    JsonValue toJson() const;

  private:
    mutable std::mutex mutex_;
    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, std::unique_ptr<Gauge>> gauges_;
    std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/**
 * RAII redirection of MetricsRegistry::current() for the calling
 * thread. A parallel task constructs a scope around its own private
 * registry; everything the task records (counters, PhaseTimer
 * histograms, ...) lands there instead of the global registry, and
 * the caller merges the private registries in task order at join.
 * Scopes nest; destruction restores the previous registry.
 */
class MetricsScope
{
  public:
    explicit MetricsScope(MetricsRegistry &registry);
    ~MetricsScope();

    MetricsScope(const MetricsScope &) = delete;
    MetricsScope &operator=(const MetricsScope &) = delete;

  private:
    MetricsRegistry *previous_;
};

} // namespace topo

#endif // TOPO_OBS_METRICS_HH
