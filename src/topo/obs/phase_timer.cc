#include "topo/obs/phase_timer.hh"

#include <vector>

#include "topo/obs/log.hh"
#include "topo/obs/trace_events.hh"
#include "topo/util/error.hh"

namespace topo
{

namespace
{

/** Live span paths on this thread, outermost first. */
thread_local std::vector<std::string> t_phase_stack;

} // namespace

PhaseTimer::PhaseTimer(std::string name, MetricsRegistry *registry)
    : registry_(registry ? registry : &MetricsRegistry::current()),
      start_(std::chrono::steady_clock::now())
{
    require(!name.empty(), "PhaseTimer: empty phase name");
    path_ = t_phase_stack.empty() ? std::move(name)
                                  : t_phase_stack.back() + "." + name;
    t_phase_stack.push_back(path_);
    if (logEnabled(LogLevel::kTrace))
        logTrace("phase", "begin", {{"phase", path_}});
}

PhaseTimer::~PhaseTimer()
{
    stop();
}

double
PhaseTimer::elapsedMs() const
{
    if (!running_)
        return final_ms_;
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start_)
        .count();
}

void
PhaseTimer::stop()
{
    if (!running_)
        return;
    final_ms_ = elapsedMs();
    running_ = false;
    if (t_phase_stack.empty() || t_phase_stack.back() != path_)
        fail("PhaseTimer: spans must stop in LIFO order ('" + path_ +
                 "' is not the innermost live span)");
    t_phase_stack.pop_back();
    registry_->histogram("phase." + path_ + ".ms").observe(final_ms_);
    ChromeTraceLog &trace = ChromeTraceLog::global();
    if (trace.enabled())
        trace.addSpan(path_, trace.tsFrom(start_), final_ms_ * 1000.0);
    if (logEnabled(LogLevel::kDebug)) {
        logDebug("phase", "end",
                 {{"phase", path_}, {"ms", final_ms_}});
    }
}

std::string
PhaseTimer::currentPath()
{
    return t_phase_stack.empty() ? std::string() : t_phase_stack.back();
}

} // namespace topo
