#include "topo/obs/metrics.hh"

#include <algorithm>
#include <utility>

#include "topo/util/error.hh"

namespace topo
{

Histogram::Histogram()
{
    // Pre-size the reservoir so observe() never reallocates: the
    // attribution tests assert the simulator's disabled path performs
    // a constant number of allocations per run.
    reservoir_.reserve(kReservoirSize);
}

void
Histogram::observe(double value)
{
    const std::lock_guard<std::mutex> lock(mutex_);
    stats_.add(value);
    ++seen_;
    if (reservoir_.size() < kReservoirSize) {
        reservoir_.push_back(value);
        return;
    }
    // Algorithm R with a deterministic xorshift64 stream.
    rng_state_ ^= rng_state_ << 13;
    rng_state_ ^= rng_state_ >> 7;
    rng_state_ ^= rng_state_ << 17;
    const std::uint64_t slot = rng_state_ % seen_;
    if (slot < kReservoirSize)
        reservoir_[static_cast<std::size_t>(slot)] = value;
}

RunningStats
Histogram::stats() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

double
Histogram::quantile(double pct) const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    if (reservoir_.empty())
        return 0.0;
    return percentile(reservoir_, pct);
}

std::vector<double>
Histogram::reservoirSnapshot() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return reservoir_;
}

void
Histogram::mergeFrom(const Histogram &other)
{
    // Copy the other side under its own lock first; taking both locks
    // at once is unnecessary (merges happen at join points where the
    // source is quiescent) and would demand a lock order.
    RunningStats other_stats;
    std::vector<double> other_reservoir;
    std::uint64_t other_seen = 0;
    {
        const std::lock_guard<std::mutex> lock(other.mutex_);
        other_stats = other.stats_;
        other_reservoir = other.reservoir_;
        other_seen = other.seen_;
    }

    const std::lock_guard<std::mutex> lock(mutex_);
    stats_.merge(other_stats);
    // Replay the surviving samples through our own deterministic
    // algorithm-R stream. seen_ advances per replayed sample and then
    // jumps to the true combined count, so later observations keep the
    // right replacement probability.
    for (const double value : other_reservoir) {
        ++seen_;
        if (reservoir_.size() < kReservoirSize) {
            reservoir_.push_back(value);
            continue;
        }
        rng_state_ ^= rng_state_ << 13;
        rng_state_ ^= rng_state_ >> 7;
        rng_state_ ^= rng_state_ << 17;
        const std::uint64_t slot = rng_state_ % seen_;
        if (slot < kReservoirSize)
            reservoir_[static_cast<std::size_t>(slot)] = value;
    }
    seen_ += other_seen - std::min<std::uint64_t>(
                              other_seen, other_reservoir.size());
}

MetricsRegistry &
MetricsRegistry::global()
{
    static MetricsRegistry *instance = new MetricsRegistry;
    return *instance;
}

namespace
{

/** Innermost MetricsScope registry for this thread (null = global). */
thread_local MetricsRegistry *t_current_registry = nullptr;

} // namespace

MetricsRegistry &
MetricsRegistry::current()
{
    return t_current_registry ? *t_current_registry : global();
}

MetricsScope::MetricsScope(MetricsRegistry &registry)
    : previous_(t_current_registry)
{
    t_current_registry = &registry;
}

MetricsScope::~MetricsScope()
{
    t_current_registry = previous_;
}

void
MetricsRegistry::mergeFrom(const MetricsRegistry &other)
{
    require(&other != this, "MetricsRegistry: cannot merge into itself");
    // Snapshot the other side's metric pointers under its lock; the
    // metric objects themselves are stable for the registry lifetime.
    std::vector<std::pair<std::string, const Counter *>> counters;
    std::vector<std::pair<std::string, const Gauge *>> gauges;
    std::vector<std::pair<std::string, const Histogram *>> histograms;
    {
        const std::lock_guard<std::mutex> lock(other.mutex_);
        for (const auto &[name, counter] : other.counters_)
            counters.emplace_back(name, counter.get());
        for (const auto &[name, gauge] : other.gauges_)
            gauges.emplace_back(name, gauge.get());
        for (const auto &[name, histogram] : other.histograms_)
            histograms.emplace_back(name, histogram.get());
    }
    for (const auto &[name, other_counter] : counters)
        counter(name).add(other_counter->value());
    for (const auto &[name, other_gauge] : gauges)
        gauge(name).set(other_gauge->value());
    for (const auto &[name, other_histogram] : histograms)
        histogram(name).mergeFrom(*other_histogram);
}

Counter &
MetricsRegistry::counter(const std::string &name)
{
    const std::lock_guard<std::mutex> lock(mutex_);
    if (gauges_.count(name) || histograms_.count(name))
        fail("MetricsRegistry: '" + name +
                 "' is already registered as another metric kind");
    auto &slot = counters_[name];
    if (!slot)
        slot = std::make_unique<Counter>();
    return *slot;
}

Gauge &
MetricsRegistry::gauge(const std::string &name)
{
    const std::lock_guard<std::mutex> lock(mutex_);
    if (counters_.count(name) || histograms_.count(name))
        fail("MetricsRegistry: '" + name +
                 "' is already registered as another metric kind");
    auto &slot = gauges_[name];
    if (!slot)
        slot = std::make_unique<Gauge>();
    return *slot;
}

Histogram &
MetricsRegistry::histogram(const std::string &name)
{
    const std::lock_guard<std::mutex> lock(mutex_);
    if (counters_.count(name) || gauges_.count(name))
        fail("MetricsRegistry: '" + name +
                 "' is already registered as another metric kind");
    auto &slot = histograms_[name];
    if (!slot)
        slot = std::make_unique<Histogram>();
    return *slot;
}

bool
MetricsRegistry::has(const std::string &name) const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return counters_.count(name) || gauges_.count(name) ||
           histograms_.count(name);
}

void
MetricsRegistry::clear()
{
    const std::lock_guard<std::mutex> lock(mutex_);
    counters_.clear();
    gauges_.clear();
    histograms_.clear();
}

JsonValue
MetricsRegistry::toJson() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    JsonValue root = JsonValue::object();
    root.set("topo_metrics", JsonValue::number(1));

    JsonValue counters = JsonValue::object();
    for (const auto &[name, counter] : counters_) {
        counters.set(name, JsonValue::number(
                               static_cast<double>(counter->value())));
    }
    root.set("counters", std::move(counters));

    JsonValue gauges = JsonValue::object();
    for (const auto &[name, gauge] : gauges_)
        gauges.set(name, JsonValue::number(gauge->value()));
    root.set("gauges", std::move(gauges));

    JsonValue histograms = JsonValue::object();
    for (const auto &[name, histogram] : histograms_) {
        const RunningStats stats = histogram->stats();
        JsonValue entry = JsonValue::object();
        entry.set("count", JsonValue::number(
                               static_cast<double>(stats.count())));
        entry.set("sum", JsonValue::number(stats.sum()));
        entry.set("mean", JsonValue::number(stats.mean()));
        entry.set("min", JsonValue::number(
                             stats.count() ? stats.min() : 0.0));
        entry.set("max", JsonValue::number(
                             stats.count() ? stats.max() : 0.0));
        entry.set("stddev", JsonValue::number(stats.stddev()));
        entry.set("p50", JsonValue::number(histogram->quantile(50.0)));
        entry.set("p90", JsonValue::number(histogram->quantile(90.0)));
        entry.set("p99", JsonValue::number(histogram->quantile(99.0)));
        histograms.set(name, std::move(entry));
    }
    root.set("histograms", std::move(histograms));
    return root;
}

} // namespace topo
