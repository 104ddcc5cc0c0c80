#include "tracer.hh"

#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>

#include "topo/util/error.hh"

namespace perfbench
{

double
msSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
}

double
residentMb()
{
    // statm: "size resident shared ..." in pages. One descriptor is kept
    // open so a span costs a read, not an open/read/close.
    static const int fd = ::open("/proc/self/statm", O_RDONLY | O_CLOEXEC);
    static const double page_mb =
        static_cast<double>(::sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
    if (fd < 0)
        return 0.0;
    char buf[128];
    const ssize_t n = ::pread(fd, buf, sizeof(buf) - 1, 0);
    if (n <= 0)
        return 0.0;
    buf[n] = '\0';
    unsigned long size = 0;
    unsigned long resident = 0;
    if (std::sscanf(buf, "%lu %lu", &size, &resident) != 2)
        return 0.0;
    return static_cast<double>(resident) * page_mb;
}

double
peakRssMb()
{
    struct rusage usage;
    if (::getrusage(RUSAGE_SELF, &usage) != 0)
        return 0.0;
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KB on Linux
}

Tracer::Tracer() : epoch_(Clock::now()) {}

int
Tracer::open(const char *layer, std::string name)
{
    SpanRecord span;
    span.layer = layer;
    span.name = std::move(name);
    span.parent = stack_.empty() ? -1 : stack_.back();
    span.rss_start_mb = residentMb();
    span.start_ms = msSince(epoch_);
    spans_.push_back(std::move(span));
    const int id = static_cast<int>(spans_.size()) - 1;
    stack_.push_back(id);
    return id;
}

void
Tracer::close(int id)
{
    SpanRecord &span = spans_[static_cast<std::size_t>(id)];
    span.end_ms = msSince(epoch_);
    span.rss_end_mb = residentMb();
    topo::require(!stack_.empty() && stack_.back() == id,
                  "perfbench: spans closed out of order");
    stack_.pop_back();
}

void
Tracer::clear()
{
    topo::require(stack_.empty(), "perfbench: clear with an open span");
    spans_.clear();
}

double
PassProfile::callMs(const std::string &key) const
{
    const auto it = call_ms.find(key);
    return it == call_ms.end() ? 0.0 : it->second;
}

PassProfile
analysePass(const std::vector<SpanRecord> &spans)
{
    PassProfile profile;
    profile.span_count = spans.size();
    topo::require(!spans.empty() && spans[0].parent == -1,
                  "perfbench: a pass needs one root span");
    // Self time = own duration minus the children's durations; the
    // same for resident growth.
    std::vector<double> child_ms(spans.size(), 0.0);
    std::vector<double> child_rss(spans.size(), 0.0);
    for (std::size_t i = 1; i < spans.size(); ++i) {
        const SpanRecord &span = spans[i];
        topo::require(span.parent >= 0,
                      "perfbench: a pass has a second root span");
        const auto parent = static_cast<std::size_t>(span.parent);
        child_ms[parent] += span.durationMs();
        child_rss[parent] += span.rss_end_mb - span.rss_start_mb;
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const SpanRecord &span = spans[i];
        const double self_ms = span.durationMs() - child_ms[i];
        const double self_rss =
            span.rss_end_mb - span.rss_start_mb - child_rss[i];
        if (i == 0) {
            profile.wall_ms = span.durationMs();
            profile.unattributed_ms = self_ms;
            continue;
        }
        LayerUsage &usage = profile.layers[span.layer];
        usage.self_ms += self_ms;
        usage.rss_mb += self_rss;
        const std::string key = span.layer + "/" + span.name;
        profile.call_ms[key] += span.durationMs();
        ++profile.call_count[key];
    }
    return profile;
}

double
calibrateSpanCostMs()
{
    constexpr int kSpans = 4000;
    Tracer tracer;
    const Clock::time_point start = Clock::now();
    for (int i = 0; i < kSpans; ++i)
        Span span(&tracer, "bench", "calibrate");
    return msSince(start) / kSpans;
}

} // namespace perfbench
