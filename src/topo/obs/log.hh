/**
 * @file
 * Leveled structured logging for the whole pipeline.
 *
 * A log line has a level, a component ("gbsc", "simulate", ...), a
 * message, and optional key=value fields. Records flow to pluggable
 * sinks (stderr by default; a file sink and test capture sinks are
 * available). The global logger's level comes from --log-level /
 * TOPO_LOG_LEVEL and defaults to info.
 *
 * Hot call sites must guard with logEnabled() (or Logger::enabled)
 * before building fields, so disabled levels cost a single predictable
 * branch and no allocation.
 */

#ifndef TOPO_OBS_LOG_HH
#define TOPO_OBS_LOG_HH

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace topo
{

/** Severity levels, ordered; kOff disables everything. */
enum class LogLevel
{
    kTrace = 0,
    kDebug,
    kInfo,
    kWarn,
    kError,
    kOff,
};

/** Parse "trace"/"debug"/"info"/"warn"/"error"/"off"; throws TopoError. */
LogLevel parseLogLevel(const std::string &text);

/** Lower-case level name ("info", ...). */
const char *logLevelName(LogLevel level);

/** One key=value pair attached to a log record. */
struct LogField
{
    std::string key;
    std::string value;

    LogField(std::string k, std::string v)
        : key(std::move(k)), value(std::move(v))
    {}
    LogField(std::string k, const char *v)
        : key(std::move(k)), value(v)
    {}
    LogField(std::string k, std::int64_t v)
        : key(std::move(k)), value(std::to_string(v))
    {}
    LogField(std::string k, std::uint64_t v)
        : key(std::move(k)), value(std::to_string(v))
    {}
    LogField(std::string k, int v)
        : key(std::move(k)), value(std::to_string(v))
    {}
    LogField(std::string k, unsigned v)
        : key(std::move(k)), value(std::to_string(v))
    {}
    LogField(std::string k, double v);
    LogField(std::string k, bool v)
        : key(std::move(k)), value(v ? "true" : "false")
    {}
};

/** A fully-assembled log record handed to every sink. */
struct LogRecord
{
    LogLevel level = LogLevel::kInfo;
    /** Subsystem emitting the record ("gbsc", "trg", ...). */
    std::string_view component;
    std::string_view message;
    std::vector<LogField> fields;
    /** Milliseconds since the logger was created. */
    double elapsed_ms = 0.0;
};

/** Render a record as one text line (shared by the stock sinks). */
std::string formatLogLine(const LogRecord &record);

/** Destination for log records. */
class LogSink
{
  public:
    virtual ~LogSink() = default;
    virtual void write(const LogRecord &record) = 0;
};

/** Sink writing formatted lines to stderr. */
class StderrSink : public LogSink
{
  public:
    void write(const LogRecord &record) override;
};

/** Sink appending formatted lines to a file; throws on open failure. */
class FileSink : public LogSink
{
  public:
    explicit FileSink(const std::string &path);
    ~FileSink() override;
    void write(const LogRecord &record) override;

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

/** Leveled logger dispatching records to its sinks. */
class Logger
{
  public:
    /** Logger with the given level and no sinks. */
    explicit Logger(LogLevel level = LogLevel::kInfo);

    /**
     * The process-wide logger. Created on first use with a StderrSink
     * and the level named by TOPO_LOG_LEVEL (info when unset/invalid).
     */
    static Logger &global();

    LogLevel level() const { return level_; }
    void setLevel(LogLevel level) { level_ = level; }

    /** True when records at @p level currently reach the sinks. */
    bool
    enabled(LogLevel level) const
    {
        return level >= level_ && level_ != LogLevel::kOff;
    }

    /** Add a sink (records are fanned out to every sink). */
    void addSink(std::shared_ptr<LogSink> sink);

    /**
     * Emit a record if @p level is enabled. Sink fan-out is serialised
     * by an internal mutex, so concurrent emitters (pool workers)
     * never interleave characters within a line or race a sink's
     * stream state; relative line order across threads follows lock
     * acquisition order.
     */
    void log(LogLevel level, std::string_view component,
             std::string_view message, std::vector<LogField> fields = {});

  private:
    LogLevel level_;
    /** Serialises sink mutation and record fan-out. */
    std::mutex sink_mutex_;
    std::vector<std::shared_ptr<LogSink>> sinks_;
    /** steady_clock origin for elapsed_ms, in nanoseconds. */
    std::uint64_t origin_ns_ = 0;
};

/** Shorthand for Logger::global().enabled(level). */
inline bool
logEnabled(LogLevel level)
{
    return Logger::global().enabled(level);
}

/** Emit on the global logger. */
inline void
logAt(LogLevel level, std::string_view component,
      std::string_view message, std::vector<LogField> fields = {})
{
    Logger::global().log(level, component, message, std::move(fields));
}

inline void
logTrace(std::string_view component, std::string_view message,
         std::vector<LogField> fields = {})
{
    logAt(LogLevel::kTrace, component, message, std::move(fields));
}

inline void
logDebug(std::string_view component, std::string_view message,
         std::vector<LogField> fields = {})
{
    logAt(LogLevel::kDebug, component, message, std::move(fields));
}

inline void
logInfo(std::string_view component, std::string_view message,
        std::vector<LogField> fields = {})
{
    logAt(LogLevel::kInfo, component, message, std::move(fields));
}

inline void
logWarn(std::string_view component, std::string_view message,
        std::vector<LogField> fields = {})
{
    logAt(LogLevel::kWarn, component, message, std::move(fields));
}

inline void
logError(std::string_view component, std::string_view message,
         std::vector<LogField> fields = {})
{
    logAt(LogLevel::kError, component, message, std::move(fields));
}

} // namespace topo

#endif // TOPO_OBS_LOG_HH
