#include "topo/obs/log.hh"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>

#include "topo/util/error.hh"

namespace topo
{

namespace
{

std::uint64_t
steadyNowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** True when a field value needs quoting in the text format. */
bool
needsQuotes(const std::string &value)
{
    if (value.empty())
        return true;
    for (const char c : value) {
        if (c == ' ' || c == '"' || c == '=' || c == '\n' || c == '\t')
            return true;
    }
    return false;
}

} // namespace

LogField::LogField(std::string k, double v) : key(std::move(k))
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    value = buf;
}

LogLevel
parseLogLevel(const std::string &text)
{
    if (text == "trace")
        return LogLevel::kTrace;
    if (text == "debug")
        return LogLevel::kDebug;
    if (text == "info")
        return LogLevel::kInfo;
    if (text == "warn" || text == "warning")
        return LogLevel::kWarn;
    if (text == "error")
        return LogLevel::kError;
    if (text == "off" || text == "none")
        return LogLevel::kOff;
    fail("parseLogLevel: unknown level '" + text +
         "' (use trace, debug, info, warn, error, or off)");
}

const char *
logLevelName(LogLevel level)
{
    switch (level) {
    case LogLevel::kTrace: return "trace";
    case LogLevel::kDebug: return "debug";
    case LogLevel::kInfo: return "info";
    case LogLevel::kWarn: return "warn";
    case LogLevel::kError: return "error";
    case LogLevel::kOff: return "off";
    }
    return "?";
}

std::string
formatLogLine(const LogRecord &record)
{
    std::ostringstream os;
    char stamp[32];
    std::snprintf(stamp, sizeof stamp, "%12.3f", record.elapsed_ms);
    os << stamp << ' ' << logLevelName(record.level) << ' '
       << record.component << ": " << record.message;
    for (const LogField &field : record.fields) {
        os << ' ' << field.key << '=';
        if (needsQuotes(field.value))
            os << '"' << field.value << '"';
        else
            os << field.value;
    }
    return os.str();
}

void
StderrSink::write(const LogRecord &record)
{
    std::cerr << formatLogLine(record) << '\n';
}

struct FileSink::Impl
{
    std::ofstream os;
};

FileSink::FileSink(const std::string &path) : impl_(new Impl)
{
    impl_->os.open(path, std::ios::app);
    if (!impl_->os.good())
        fail("FileSink: cannot open log file '" + path + "'");
}

FileSink::~FileSink() = default;

void
FileSink::write(const LogRecord &record)
{
    impl_->os << formatLogLine(record) << '\n';
    impl_->os.flush();
}

Logger::Logger(LogLevel level)
    : level_(level), origin_ns_(steadyNowNs())
{
}

Logger &
Logger::global()
{
    static Logger *instance = [] {
        auto *logger = new Logger(LogLevel::kInfo);
        if (const char *env = std::getenv("TOPO_LOG_LEVEL")) {
            try {
                logger->setLevel(parseLogLevel(env));
            } catch (const TopoError &) {
                // An invalid env value must not break startup; keep
                // the default and complain once sinks exist.
            }
        }
        logger->addSink(std::make_shared<StderrSink>());
        return logger;
    }();
    return *instance;
}

void
Logger::addSink(std::shared_ptr<LogSink> sink)
{
    require(sink != nullptr, "Logger::addSink: null sink");
    const std::lock_guard<std::mutex> lock(sink_mutex_);
    sinks_.push_back(std::move(sink));
}

void
Logger::log(LogLevel level, std::string_view component,
            std::string_view message, std::vector<LogField> fields)
{
    if (!enabled(level))
        return;
    LogRecord record;
    record.level = level;
    record.component = component;
    record.message = message;
    record.fields = std::move(fields);
    record.elapsed_ms =
        static_cast<double>(steadyNowNs() - origin_ns_) / 1e6;
    const std::lock_guard<std::mutex> lock(sink_mutex_);
    for (const std::shared_ptr<LogSink> &sink : sinks_)
        sink->write(record);
}

} // namespace topo
