/**
 * @file
 * In-memory span recorder for the benchmark's traced run.
 *
 * A span brackets one call into a libtopo layer: it records the layer,
 * the call's name, its start and end on the steady clock, the span that
 * was open when it started (its parent), and the resident set size at
 * both ends. Spans stay in memory; analysePass() folds one pass's spans
 * into per-layer self times once the pass has ended.
 *
 * A null Tracer pointer turns every Span into a no-op, so the untraced
 * run executes the same code with no recording at all.
 */

#ifndef PERFBENCH_TRACER_HH
#define PERFBENCH_TRACER_HH

#include <chrono>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Milliseconds elapsed since @p start. */
double msSince(Clock::time_point start);

/** Current resident set size of this process in MB (/proc/self/statm). */
double residentMb();

/** Process high-water resident set size in MB (getrusage). */
double peakRssMb();

/** One recorded span. */
struct SpanRecord
{
    std::string layer;
    std::string name;
    /** Index of the enclosing span, or -1 for a root. */
    int parent = -1;
    double start_ms = 0.0;
    double end_ms = 0.0;
    double rss_start_mb = 0.0;
    double rss_end_mb = 0.0;

    double durationMs() const { return end_ms - start_ms; }
};

/** Records spans; open spans form a stack that supplies the parents. */
class Tracer
{
  public:
    Tracer();

    /** Open a span and return its index. */
    int open(const char *layer, std::string name);

    /** Close the span @p id (must be the innermost open span). */
    void close(int id);

    const std::vector<SpanRecord> &spans() const { return spans_; }

    /** Forget every recorded span (no span may be open). */
    void clear();

  private:
    Clock::time_point epoch_;
    std::vector<SpanRecord> spans_;
    std::vector<int> stack_;
};

/** RAII span; a no-op when the tracer is null. */
class Span
{
  public:
    Span(Tracer *tracer, const char *layer, std::string name)
        : tracer_(tracer),
          id_(tracer ? tracer->open(layer, std::move(name)) : -1)
    {}
    ~Span()
    {
        if (tracer_)
            tracer_->close(id_);
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Tracer *tracer_;
    int id_;
};

/** Run @p fn inside a span and return its result. */
template <typename Fn>
auto
traced(Tracer *tracer, const char *layer, std::string name, Fn &&fn)
{
    Span span(tracer, layer, std::move(name));
    return fn();
}

/** Self time and resident growth of one layer within a pass. */
struct LayerUsage
{
    double self_ms = 0.0;
    double rss_mb = 0.0;
};

/** One pass's spans, folded. */
struct PassProfile
{
    /** Duration of the root span. */
    double wall_ms = 0.0;
    /** Root self time: pass wall time inside no call span. */
    double unattributed_ms = 0.0;
    /** Number of spans recorded, the root included. */
    std::size_t span_count = 0;
    /** Per layer: summed self time and self resident growth. */
    std::map<std::string, LayerUsage> layers;
    /** Per "layer/name": summed inclusive duration. */
    std::map<std::string, double> call_ms;
    /** Per "layer/name": number of spans. */
    std::map<std::string, std::size_t> call_count;

    /** Summed inclusive duration of @p key, 0 when never called. */
    double callMs(const std::string &key) const;
};

/** Fold the spans of a tracer holding exactly one root span. */
PassProfile analysePass(const std::vector<SpanRecord> &spans);

/** Mean cost of one open/close pair, in ms, measured on this host. */
double calibrateSpanCostMs();

} // namespace perfbench

#endif // PERFBENCH_TRACER_HH
