#include "topo/obs/trace_events.hh"

#include <fstream>

#include "topo/util/error.hh"

namespace topo
{

namespace
{

/** Next Chrome tid to hand out (1 = first-emitting thread). */
std::atomic<int> g_next_tid{1};
/** This thread's Chrome tid; 0 until first use. */
thread_local int t_tid = 0;

} // namespace

int
ChromeTraceLog::currentTid()
{
    if (t_tid == 0)
        t_tid = g_next_tid.fetch_add(1, std::memory_order_relaxed);
    return t_tid;
}

ChromeTraceLog::ChromeTraceLog()
    : origin_(std::chrono::steady_clock::now())
{}

ChromeTraceLog &
ChromeTraceLog::global()
{
    static ChromeTraceLog *instance = new ChromeTraceLog;
    return *instance;
}

double
ChromeTraceLog::tsFrom(std::chrono::steady_clock::time_point tp) const
{
    return std::chrono::duration<double, std::micro>(tp - origin_)
        .count();
}

void
ChromeTraceLog::announceThreadLocked(int tid)
{
    for (const int known : announced_tids_) {
        if (known == tid)
            return;
    }
    announced_tids_.push_back(tid);
    ChromeTraceEvent meta;
    meta.name = "thread_name";
    meta.ph = 'M';
    meta.pid = kWallPid;
    meta.tid = tid;
    meta.arg_name =
        tid == 1 ? "main" : "worker-" + std::to_string(tid - 1);
    events_.push_back(std::move(meta));
}

void
ChromeTraceLog::addSpan(const std::string &name, double ts_us,
                       double dur_us)
{
    const int tid = currentTid();
    const std::lock_guard<std::mutex> lock(mutex_);
    announceThreadLocked(tid);
    ChromeTraceEvent event;
    event.name = name;
    event.ph = 'X';
    event.ts = ts_us;
    event.dur = dur_us;
    event.pid = kWallPid;
    event.tid = tid;
    events_.push_back(std::move(event));
}

void
ChromeTraceLog::addCounter(const std::string &track,
                          const std::string &name, double ts,
                          double value)
{
    const std::lock_guard<std::mutex> lock(mutex_);
    int pid = 0;
    for (const auto &[known, known_pid] : counter_tracks_) {
        if (known == track) {
            pid = known_pid;
            break;
        }
    }
    if (pid == 0) {
        pid = kFirstCounterPid +
              static_cast<int>(counter_tracks_.size());
        counter_tracks_.emplace_back(track, pid);
        ChromeTraceEvent meta;
        meta.name = "process_name";
        meta.ph = 'M';
        meta.pid = pid;
        meta.arg_name = track;
        events_.push_back(std::move(meta));
    }
    ChromeTraceEvent event;
    event.name = name;
    event.ph = 'C';
    event.ts = ts;
    event.pid = pid;
    event.args.emplace_back(name, value);
    events_.push_back(std::move(event));
}

std::size_t
ChromeTraceLog::size() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return events_.size();
}

void
ChromeTraceLog::clear()
{
    const std::lock_guard<std::mutex> lock(mutex_);
    events_.clear();
    counter_tracks_.clear();
    announced_tids_.clear();
}

JsonValue
ChromeTraceLog::toJson() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    JsonValue root = JsonValue::object();
    JsonValue list = JsonValue::array();
    for (const ChromeTraceEvent &event : events_) {
        JsonValue row = JsonValue::object();
        row.set("name", JsonValue::string(event.name));
        row.set("ph", JsonValue::string(std::string(1, event.ph)));
        row.set("pid", JsonValue::number(event.pid));
        row.set("tid", JsonValue::number(event.tid));
        if (event.ph != 'M')
            row.set("ts", JsonValue::number(event.ts));
        if (event.ph == 'X')
            row.set("dur", JsonValue::number(event.dur));
        if (!event.args.empty() || !event.arg_name.empty()) {
            JsonValue args = JsonValue::object();
            if (!event.arg_name.empty())
                args.set("name", JsonValue::string(event.arg_name));
            for (const auto &[key, value] : event.args)
                args.set(key, JsonValue::number(value));
            row.set("args", std::move(args));
        }
        list.push(std::move(row));
    }
    root.set("traceEvents", std::move(list));
    root.set("displayTimeUnit", JsonValue::string("ms"));
    return root;
}

void
ChromeTraceLog::writeFile(const std::string &path) const
{
    std::ofstream os(path);
    if (!os.good())
        fail("ChromeTraceLog: cannot open trace file '" + path + "'");
    toJson().write(os);
    os << '\n';
    if (!os.good())
        fail("ChromeTraceLog: failed writing trace file '" + path + "'");
}

} // namespace topo
