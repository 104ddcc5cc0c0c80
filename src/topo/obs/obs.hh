/**
 * @file
 * Umbrella header and CLI glue for the observability layer.
 *
 * Every tool calls initObservability() right after option parsing and
 * writeMetricsIfRequested() before exiting. The standard knobs (all of
 * them also reachable through the TOPO_* environment, courtesy of
 * Options):
 *
 *   --log-level=LEVEL   trace|debug|info|warn|error|off (default info)
 *   --log-file=FILE     additionally append log lines to FILE
 *   --metrics-out=FILE  write the metrics registry as JSON on exit
 *   --trace-out=FILE    collect Chrome trace events (phase spans, and
 *                       the timelines a tool's --timeline-window
 *                       records) and write them on exit; load the
 *                       file in Perfetto or chrome://tracing
 */

#ifndef TOPO_OBS_OBS_HH
#define TOPO_OBS_OBS_HH

#include "topo/obs/json.hh"
#include "topo/obs/log.hh"
#include "topo/obs/metrics.hh"
#include "topo/obs/phase_timer.hh"
#include "topo/obs/timeline.hh"
#include "topo/obs/trace_events.hh"
#include "topo/util/options.hh"

namespace topo
{

/**
 * Configure the global logger from --log-level / --log-file (and
 * their TOPO_LOG_LEVEL / TOPO_LOG_FILE environment fallbacks), and
 * enable trace-event collection when --trace-out names a file.
 * Throws TopoError on an unknown level name or unwritable log file.
 */
void initObservability(const Options &opts);

/**
 * Write the global metrics registry to the file named by
 * --metrics-out / TOPO_METRICS_OUT.
 *
 * @return True when a snapshot was written, false when the option was
 *         absent.
 */
bool writeMetricsIfRequested(const Options &opts);

/**
 * Write the global trace-event log to the file named by --trace-out /
 * TOPO_TRACE_OUT as Chrome Trace Event Format JSON.
 *
 * @return True when a trace was written, false when the option was
 *         absent.
 */
bool writeTraceIfRequested(const Options &opts);

} // namespace topo

#endif // TOPO_OBS_OBS_HH
