#include "topo/obs/obs.hh"

#include <fstream>
#include <memory>

#include "topo/obs/provenance.hh"
#include "topo/util/error.hh"

namespace topo
{

void
initObservability(const Options &opts)
{
    Logger &logger = Logger::global();
    if (opts.has("log-level"))
        logger.setLevel(parseLogLevel(opts.getString("log-level", "")));
    const std::string log_file = opts.getString("log-file", "");
    if (!log_file.empty())
        logger.addSink(std::make_shared<FileSink>(log_file));
    if (!opts.getString("trace-out", "").empty())
        ChromeTraceLog::global().setEnabled(true);
}

bool
writeMetricsIfRequested(const Options &opts)
{
    const std::string path = opts.getString("metrics-out", "");
    if (path.empty())
        return false;
    JsonValue snapshot = MetricsRegistry::global().toJson();
    snapshot.set("provenance", provenanceJson());
    std::ofstream os(path);
    if (!os.good())
        fail("metrics: cannot open metrics file '" + path + "'");
    snapshot.write(os);
    os << '\n';
    if (!os.good())
        fail("metrics: failed writing metrics file '" + path + "'");
    logInfo("metrics", "snapshot written", {{"file", path}});
    return true;
}

bool
writeTraceIfRequested(const Options &opts)
{
    const std::string path = opts.getString("trace-out", "");
    if (path.empty())
        return false;
    ChromeTraceLog &trace = ChromeTraceLog::global();
    trace.writeFile(path);
    logInfo("trace", "trace events written",
            {{"file", path}, {"events", trace.size()}});
    return true;
}

} // namespace topo
