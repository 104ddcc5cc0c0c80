#include "topo/eval/report_gen.hh"

#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <memory>
#include <ostream>

#include "topo/cache/attribution.hh"
#include "topo/cache/simulate.hh"
#include "topo/cache/taxonomy.hh"
#include "topo/exec/exec.hh"
#include "topo/obs/metrics.hh"
#include "topo/obs/phase_timer.hh"
#include "topo/util/error.hh"
#include "topo/util/table.hh"

namespace topo
{

namespace
{

/** Down-sample a timeline to at most @p cap points by window merging. */
std::vector<double>
missRateSeries(const std::vector<TimelineSample> &samples,
               std::size_t cap)
{
    std::vector<double> series;
    if (samples.empty())
        return series;
    const std::size_t stride = (samples.size() + cap - 1) / cap;
    for (std::size_t i = 0; i < samples.size(); i += stride) {
        std::uint64_t accesses = 0, misses = 0;
        for (std::size_t j = i;
             j < samples.size() && j < i + stride; ++j) {
            accesses += samples[j].accesses;
            misses += samples[j].misses;
        }
        series.push_back(accesses ? static_cast<double>(misses) /
                                        static_cast<double>(accesses)
                                  : 0.0);
    }
    return series;
}

} // namespace

std::string
sparkline(const std::vector<double> &values, double lo, double hi)
{
    static const char *kBlocks[] = {"▁", "▂", "▃",
                                    "▄", "▅", "▆",
                                    "▇", "█"};
    std::string out;
    const double span = hi > lo ? hi - lo : 1.0;
    for (const double value : values) {
        const double unit =
            std::clamp((value - lo) / span, 0.0, 1.0);
        out += kBlocks[static_cast<int>(unit * 7.0 + 0.5)];
    }
    return out;
}

ComparisonReport
buildComparisonReport(const Program &program, const FetchStream &stream,
                      const CacheConfig &cache,
                      const std::vector<LayoutCandidate> &candidates,
                      const ReportOptions &options)
{
    require(!candidates.empty(),
            "buildComparisonReport: no candidate layouts");
    PhaseTimer timer("report");

    ComparisonReport report;
    report.cache = cache.describe();
    report.program = program.name();
    report.stream_blocks = stream.size();
    report.timeline_window =
        options.timeline_window != 0
            ? options.timeline_window
            : std::max<std::uint64_t>(1, stream.size() / 64);

    // Candidates replay the same stream independently, so they fan out
    // on the shared pool. Each candidate records into a private
    // metrics registry; registries merge in candidate order at join,
    // keeping the report and --metrics-out byte-identical for every
    // --jobs value (DESIGN.md §9).
    struct CandidateResult
    {
        LayoutReport entry;
        std::unique_ptr<MetricsRegistry> metrics;
    };
    std::vector<CandidateResult> results = parallelMap(
        candidates.size(), [&](std::size_t c) {
            const LayoutCandidate &candidate = candidates[c];
            CandidateResult out;
            out.metrics = std::make_unique<MetricsRegistry>();
            MetricsScope scope(*out.metrics);
            candidate.layout.validate(program, cache.line_bytes);
            AttributionSink::Options sink_opts;
            sink_opts.max_pairs = options.max_pairs;
            AttributionSink sink(program, candidate.layout, cache,
                                 stream.lineBytes(), sink_opts);
            TimelineRecorder timeline(report.timeline_window,
                                      program.procCount());
            TaxonomySink taxonomy(program, stream.programLineCount(),
                                  cache);
            SimObservers observers;
            observers.attribution = &sink;
            observers.taxonomy = &taxonomy;
            observers.timeline = &timeline;
            const SimResult sim =
                simulateLayout(program, candidate.layout, stream,
                               cache, false, nullptr, &observers);

            LayoutReport &entry = out.entry;
            entry.label = candidate.label;
            entry.accesses = sim.accesses;
            entry.misses = sim.misses;
            entry.evictions = sim.evictions;
            entry.miss_rate = sim.missRate();
            for (const ConflictPair &pair :
                 sink.topPairs(options.top_pairs)) {
                entry.top_pairs.push_back(
                    {program.proc(pair.evictor).name,
                     program.proc(pair.victim).name, pair.count});
            }
            entry.tracked_pairs = sink.trackedPairs();
            entry.dropped_pairs = sink.droppedPairs();
            entry.set_misses = sink.missesBySet();
            std::vector<std::uint32_t> by_misses(
                entry.set_misses.size());
            for (std::uint32_t s = 0; s < by_misses.size(); ++s)
                by_misses[s] = s;
            std::stable_sort(by_misses.begin(), by_misses.end(),
                             [&](std::uint32_t a, std::uint32_t b) {
                                 return entry.set_misses[a] >
                                        entry.set_misses[b];
                             });
            for (std::size_t i = 0;
                 i < by_misses.size() && i < options.hot_sets; ++i) {
                const std::uint32_t s = by_misses[i];
                if (entry.set_misses[s] == 0)
                    break;
                entry.hot_sets.push_back(
                    {s, sink.accessesBySet()[s], entry.set_misses[s]});
            }
            entry.timeline = timeline.samples();
            entry.compulsory = taxonomy.compulsory();
            entry.capacity = taxonomy.capacity();
            entry.conflict = taxonomy.conflict();
            entry.reuse_hist.assign(taxonomy.reuseHistogram().begin(),
                                    taxonomy.reuseHistogram().end());
            return out;
        });
    for (CandidateResult &result : results) {
        MetricsRegistry::current().mergeFrom(*result.metrics);
        report.layouts.push_back(std::move(result.entry));
    }

    // Timeline deltas vs the first (baseline) candidate. Windows are
    // aligned: every layout replays the same stream with the same
    // window size.
    const std::vector<TimelineSample> &base =
        report.layouts.front().timeline;
    for (std::size_t i = 1; i < report.layouts.size(); ++i) {
        LayoutReport &entry = report.layouts[i];
        const std::size_t windows =
            std::min(base.size(), entry.timeline.size());
        for (std::size_t w = 0; w < windows; ++w) {
            const double delta = entry.timeline[w].missRate() -
                                 base[w].missRate();
            if (delta < 0.0)
                ++entry.windows_better;
            else if (delta > 0.0)
                ++entry.windows_worse;
            if (std::abs(delta) > std::abs(entry.max_window_delta))
                entry.max_window_delta = delta;
        }
    }
    return report;
}

void
renderReportMarkdown(const ComparisonReport &report, std::ostream &os)
{
    os << "# Layout comparison report";
    if (!report.title.empty())
        os << " — " << report.title;
    os << "\n\n";
    os << "- program: `" << report.program << "`\n";
    os << "- cache: " << report.cache << "\n";
    os << "- stream: " << report.stream_blocks << " line fetches\n";
    os << "- timeline window: " << report.timeline_window
       << " fetches\n\n";

    os << "## Miss rates\n\n";
    os << "| layout | miss rate | misses | evictions |\n";
    os << "|---|---|---|---|\n";
    for (const LayoutReport &entry : report.layouts) {
        os << "| " << entry.label << " | "
           << fmtPercent(entry.miss_rate) << " | " << entry.misses
           << " | " << entry.evictions << " |\n";
    }
    os << "\n";

    os << "## Miss taxonomy (3C)\n\n";
    os << "Compulsory and the reuse-distance profile are properties "
          "of the stream, not the layout; only the capacity/conflict "
          "split moves between candidates.\n\n";
    os << "| layout | misses | compulsory | capacity | conflict | "
          "conflict share |\n";
    os << "|---|---|---|---|---|---|\n";
    for (const LayoutReport &entry : report.layouts) {
        const double share =
            entry.misses ? static_cast<double>(entry.conflict) /
                               static_cast<double>(entry.misses)
                         : 0.0;
        os << "| " << entry.label << " | " << entry.misses << " | "
           << entry.compulsory << " | " << entry.capacity << " | "
           << entry.conflict << " | " << fmtPercent(share) << " |\n";
    }
    os << "\n";

    if (!report.layouts.empty() &&
        !report.layouts.front().reuse_hist.empty()) {
        const std::vector<std::uint64_t> &hist =
            report.layouts.front().reuse_hist;
        os << "### Reuse-distance profile (stream-wide)\n\n";
        os << "| stack distance | fetches |\n";
        os << "|---|---|\n";
        for (std::size_t b = 0; b < hist.size(); ++b) {
            if (hist[b] == 0)
                continue;
            os << "| " << reuseBucketLabel(b) << " | " << hist[b]
               << " |\n";
        }
        os << "\n";
    }

    for (const LayoutReport &entry : report.layouts) {
        os << "## " << entry.label << "\n\n";
        os << "### Top conflicting procedure pairs\n\n";
        if (entry.top_pairs.empty()) {
            os << "(no valid-line evictions — the working set fits "
                  "the cache)\n\n";
        } else {
            os << "| evictor | victim | evictions |\n";
            os << "|---|---|---|\n";
            for (const ConflictPairRow &pair : entry.top_pairs) {
                os << "| `" << pair.evictor << "` | `" << pair.victim
                   << "` | " << pair.count << " |\n";
            }
            os << "\n";
            if (entry.dropped_pairs != 0) {
                os << "(" << entry.dropped_pairs
                   << " evictions fell outside the " << entry.tracked_pairs
                   << "-cell pair budget)\n\n";
            }
        }
        os << "### Set pressure (hottest sets)\n\n";
        if (entry.hot_sets.empty()) {
            os << "(no misses)\n\n";
        } else {
            os << "| set | accesses | misses |\n";
            os << "|---|---|---|\n";
            for (const SetPressureRow &row : entry.hot_sets) {
                os << "| " << row.set << " | " << row.accesses << " | "
                   << row.misses << " |\n";
            }
            os << "\n";
        }
    }

    os << "## Timeline (miss rate per window)\n\n";
    double hi = 0.0;
    for (const LayoutReport &entry : report.layouts) {
        for (const TimelineSample &sample : entry.timeline)
            hi = std::max(hi, sample.missRate());
    }
    os << "Scale: 0 .. " << fmtPercent(hi) << " per glyph column.\n\n";
    for (const LayoutReport &entry : report.layouts) {
        os << "- `" << entry.label << "` "
           << sparkline(missRateSeries(entry.timeline, 60), 0.0, hi)
           << "\n";
    }
    os << "\n";
    for (std::size_t i = 1; i < report.layouts.size(); ++i) {
        const LayoutReport &entry = report.layouts[i];
        os << "- `" << entry.label << "` vs `"
           << report.layouts.front().label << "`: better in "
           << entry.windows_better << " windows, worse in "
           << entry.windows_worse << " (largest gap "
           << fmtPercent(entry.max_window_delta) << ")\n";
    }
    if (report.layouts.size() > 1)
        os << "\n";
}

JsonValue
reportToJson(const ComparisonReport &report)
{
    JsonValue root = JsonValue::object();
    root.set("topo_report", JsonValue::number(1));
    root.set("title", JsonValue::string(report.title));
    root.set("program", JsonValue::string(report.program));
    root.set("cache", JsonValue::string(report.cache));
    root.set("stream_blocks", JsonValue::count(report.stream_blocks));
    root.set("timeline_window", JsonValue::count(report.timeline_window));

    JsonValue layouts = JsonValue::array();
    for (const LayoutReport &entry : report.layouts) {
        JsonValue row = JsonValue::object();
        row.set("label", JsonValue::string(entry.label));
        row.set("accesses", JsonValue::count(entry.accesses));
        row.set("misses", JsonValue::count(entry.misses));
        row.set("evictions", JsonValue::count(entry.evictions));
        row.set("miss_rate", JsonValue::number(entry.miss_rate));

        JsonValue pairs = JsonValue::array();
        for (const ConflictPairRow &pair : entry.top_pairs) {
            JsonValue cell = JsonValue::object();
            cell.set("evictor", JsonValue::string(pair.evictor));
            cell.set("victim", JsonValue::string(pair.victim));
            cell.set("count", JsonValue::count(pair.count));
            pairs.push(std::move(cell));
        }
        row.set("top_pairs", std::move(pairs));
        row.set("tracked_pairs", JsonValue::count(entry.tracked_pairs));
        row.set("dropped_pairs", JsonValue::count(entry.dropped_pairs));

        JsonValue sets = JsonValue::array();
        for (const std::uint64_t misses : entry.set_misses)
            sets.push(JsonValue::count(misses));
        row.set("set_misses", std::move(sets));

        const bool has_taxonomy = !entry.reuse_hist.empty();
        if (has_taxonomy) {
            JsonValue taxonomy = JsonValue::object();
            taxonomy.set("compulsory", JsonValue::count(entry.compulsory));
            taxonomy.set("capacity", JsonValue::count(entry.capacity));
            taxonomy.set("conflict", JsonValue::count(entry.conflict));
            JsonValue hist = JsonValue::array();
            for (const std::uint64_t count : entry.reuse_hist)
                hist.push(JsonValue::count(count));
            taxonomy.set("reuse_hist", std::move(hist));
            row.set("taxonomy", std::move(taxonomy));
        }

        JsonValue timeline = JsonValue::array();
        for (const TimelineSample &sample : entry.timeline) {
            JsonValue cell = JsonValue::object();
            cell.set("start", JsonValue::count(sample.start));
            cell.set("accesses", JsonValue::count(sample.accesses));
            cell.set("misses", JsonValue::count(sample.misses));
            cell.set("miss_rate", JsonValue::number(sample.missRate()));
            cell.set("working_set_procs",
                     JsonValue::count(sample.distinct_procs));
            if (has_taxonomy) {
                cell.set("compulsory", JsonValue::count(sample.compulsory));
                cell.set("capacity", JsonValue::count(sample.capacity));
                cell.set("conflict", JsonValue::count(sample.conflict));
                JsonValue hist = JsonValue::array();
                for (const std::uint32_t count : sample.reuse_hist)
                    hist.push(JsonValue::count(count));
                cell.set("reuse_hist", std::move(hist));
            }
            timeline.push(std::move(cell));
        }
        row.set("timeline", std::move(timeline));
        row.set("windows_better", JsonValue::count(entry.windows_better));
        row.set("windows_worse", JsonValue::count(entry.windows_worse));
        row.set("max_window_delta",
                JsonValue::number(entry.max_window_delta));
        layouts.push(std::move(row));
    }
    root.set("layouts", std::move(layouts));
    return root;
}

namespace
{

/** Reject members of @p value outside @p allowed. */
void
checkKeys(const JsonValue &value,
          std::initializer_list<const char *> allowed,
          const std::string &where)
{
    requireData(value.isObject(), "expected an object", where);
    for (const auto &[key, member] : value.members()) {
        (void)member;
        bool known = false;
        for (const char *name : allowed)
            known = known || key == name;
        requireData(known, "unknown key '" + key + "'", where);
    }
}

void
checkRequired(const JsonValue &value,
              std::initializer_list<const char *> required,
              const std::string &where)
{
    for (const char *name : required)
        requireData(value.find(name) != nullptr,
                    std::string("missing key '") + name + "'", where);
}

std::uint64_t
asCount(const JsonValue &value, const std::string &where)
{
    requireData(value.kind() == JsonValue::Kind::kNumber,
                "expected a number", where);
    const double number = value.asNumber();
    requireData(number >= 0.0, "expected a non-negative count", where);
    return static_cast<std::uint64_t>(number);
}

/** Histogram must have kReuseBucketCount buckets summing to @p total. */
void
checkReuseHist(const JsonValue &hist, std::uint64_t total,
               const std::string &where)
{
    requireData(hist.isArray(), "reuse_hist must be an array", where);
    requireData(hist.size() == kReuseBucketCount,
                "reuse_hist must have " +
                    std::to_string(kReuseBucketCount) + " buckets",
                where);
    std::uint64_t sum = 0;
    for (const JsonValue &bucket : hist.elements())
        sum += asCount(bucket, where);
    requireData(sum == total,
                "reuse_hist sums to " + std::to_string(sum) +
                    ", expected the access count " +
                    std::to_string(total),
                where);
}

/** 3C members of @p value must sum to exactly @p misses. */
void
checkThreeCSum(const JsonValue &value, std::uint64_t misses,
               const std::string &where)
{
    const std::uint64_t sum =
        asCount(value.at("compulsory"), where) +
        asCount(value.at("capacity"), where) +
        asCount(value.at("conflict"), where);
    requireData(sum == misses,
                "compulsory+capacity+conflict is " +
                    std::to_string(sum) + ", expected misses " +
                    std::to_string(misses),
                where);
}

void
checkProvenance(const JsonValue &value, const std::string &where)
{
    requireData(value.isObject(), "provenance must be an object",
                where);
    checkRequired(value, {"git_sha", "build_type", "compiler"}, where);
    for (const auto &[key, member] : value.members())
        requireData(member.kind() == JsonValue::Kind::kString,
                    "provenance value '" + key + "' must be a string",
                    where);
}

void
checkTimelineRow(const JsonValue &row, const std::string &where)
{
    checkKeys(row,
              {"start", "accesses", "misses", "miss_rate",
               "working_set_procs", "compulsory", "capacity",
               "conflict", "reuse_hist"},
              where);
    checkRequired(row,
                  {"start", "accesses", "misses", "miss_rate",
                   "working_set_procs"},
                  where);
    const bool any_taxonomy = row.find("compulsory") != nullptr ||
                              row.find("capacity") != nullptr ||
                              row.find("conflict") != nullptr ||
                              row.find("reuse_hist") != nullptr;
    if (!any_taxonomy)
        return;
    checkRequired(
        row, {"compulsory", "capacity", "conflict", "reuse_hist"},
        where);
    checkThreeCSum(row, asCount(row.at("misses"), where), where);
    checkReuseHist(row.at("reuse_hist"),
                   asCount(row.at("accesses"), where), where);
}

void
checkLayoutTaxonomy(const JsonValue &taxonomy, std::uint64_t misses,
                    std::uint64_t accesses, const std::string &where)
{
    checkKeys(taxonomy,
              {"compulsory", "capacity", "conflict", "shadow_lines",
               "reuse_hist", "top_procs"},
              where);
    checkRequired(
        taxonomy, {"compulsory", "capacity", "conflict", "reuse_hist"},
        where);
    checkThreeCSum(taxonomy, misses, where);
    checkReuseHist(taxonomy.at("reuse_hist"), accesses, where);
    if (const JsonValue *procs = taxonomy.find("top_procs")) {
        requireData(procs->isArray(), "top_procs must be an array",
                    where);
        for (const JsonValue &row : procs->elements()) {
            checkKeys(row,
                      {"proc", "compulsory", "capacity", "conflict"},
                      where + ".top_procs");
            checkRequired(
                row, {"proc", "compulsory", "capacity", "conflict"},
                where + ".top_procs");
        }
    }
}

void
checkReportDoc(const JsonValue &doc, const std::string &where)
{
    checkKeys(doc,
              {"topo_report", "title", "program", "cache",
               "stream_blocks", "timeline_window", "layouts"},
              where);
    checkRequired(doc,
                  {"topo_report", "program", "cache", "stream_blocks",
                   "timeline_window", "layouts"},
                  where);
    const JsonValue &layouts = doc.at("layouts");
    requireData(layouts.isArray(), "layouts must be an array", where);
    for (std::size_t i = 0; i < layouts.size(); ++i) {
        const JsonValue &row = layouts.at(i);
        const std::string layout_where =
            where + ".layouts[" + std::to_string(i) + "]";
        checkKeys(row,
                  {"label", "accesses", "misses", "evictions",
                   "miss_rate", "top_pairs", "tracked_pairs",
                   "dropped_pairs", "set_misses", "taxonomy",
                   "timeline", "windows_better", "windows_worse",
                   "max_window_delta"},
                  layout_where);
        checkRequired(row,
                      {"label", "accesses", "misses", "evictions",
                       "miss_rate", "top_pairs", "set_misses",
                       "timeline"},
                      layout_where);
        const std::uint64_t misses =
            asCount(row.at("misses"), layout_where);
        const std::uint64_t accesses =
            asCount(row.at("accesses"), layout_where);
        if (const JsonValue *taxonomy = row.find("taxonomy"))
            checkLayoutTaxonomy(*taxonomy, misses, accesses,
                                layout_where + ".taxonomy");
        const JsonValue &timeline = row.at("timeline");
        requireData(timeline.isArray(), "timeline must be an array",
                    layout_where);
        for (std::size_t w = 0; w < timeline.size(); ++w)
            checkTimelineRow(timeline.at(w),
                             layout_where + ".timeline[" +
                                 std::to_string(w) + "]");
    }
}

/** Sampled-run provenance attached to a bench row (DESIGN.md §15). */
void
checkSamplingBlock(const JsonValue &sampling, double row_miss_rate,
                   const std::string &where)
{
    checkKeys(sampling,
              {"mode", "window_runs", "windows", "clusters",
               "selected_windows", "replayed_fraction",
               "est_miss_rate", "exact_miss_rate", "abs_error"},
              where);
    checkRequired(sampling,
                  {"mode", "window_runs", "windows", "clusters",
                   "selected_windows", "replayed_fraction",
                   "est_miss_rate"},
                  where);
    requireData(sampling.at("mode").kind() ==
                        JsonValue::Kind::kString &&
                    sampling.at("mode").asString() == "simpoint",
                "sampling mode must be 'simpoint'", where);
    const std::uint64_t windows =
        asCount(sampling.at("windows"), where);
    const std::uint64_t clusters =
        asCount(sampling.at("clusters"), where);
    const std::uint64_t selected =
        asCount(sampling.at("selected_windows"), where);
    asCount(sampling.at("window_runs"), where);
    requireData(clusters <= windows || windows == 0,
                "more clusters than windows", where);
    requireData(selected <= clusters,
                "more selected windows than clusters", where);
    const double replayed =
        sampling.at("replayed_fraction").asNumber();
    requireData(replayed >= 0.0 && replayed <= 1.0,
                "replayed_fraction must be in [0, 1]", where);
    const double est = sampling.at("est_miss_rate").asNumber();
    requireData(est >= 0.0 && est <= 1.0,
                "est_miss_rate must be in [0, 1]", where);
    requireData(std::fabs(est - row_miss_rate) < 1e-9,
                "est_miss_rate disagrees with the row's miss_rate",
                where);
    const JsonValue *exact = sampling.find("exact_miss_rate");
    const JsonValue *abs_error = sampling.find("abs_error");
    requireData((exact == nullptr) == (abs_error == nullptr),
                "exact_miss_rate and abs_error come together "
                "(--sample-verify writes both)",
                where);
    if (exact != nullptr) {
        const double exact_rate = exact->asNumber();
        requireData(exact_rate >= 0.0 && exact_rate <= 1.0,
                    "exact_miss_rate must be in [0, 1]", where);
        requireData(std::fabs(abs_error->asNumber() -
                              std::fabs(est - exact_rate)) < 1e-9,
                    "abs_error is not |est - exact|", where);
    }
}

void
checkBenchDoc(const JsonValue &doc, const std::string &where)
{
    checkKeys(doc,
              {"topo_bench", "date", "benchmarks", "trace_scale",
               "cache", "policy", "jobs", "threads", "peak_rss_kb",
               "provenance", "runs"},
              where);
    checkRequired(doc,
                  {"topo_bench", "date", "benchmarks", "trace_scale",
                   "cache", "jobs", "runs"},
                  where);
    if (const JsonValue *provenance = doc.find("provenance"))
        checkProvenance(*provenance, where + ".provenance");
    const JsonValue &runs = doc.at("runs");
    requireData(runs.isArray(), "runs must be an array", where);
    for (std::size_t i = 0; i < runs.size(); ++i) {
        const JsonValue &row = runs.at(i);
        const std::string run_where =
            where + ".runs[" + std::to_string(i) + "]";
        checkKeys(row,
                  {"benchmark", "algorithm", "accesses", "misses",
                   "miss_rate", "wall_ms", "blocks_per_sec",
                   "taxonomy", "sampling"},
                  run_where);
        checkRequired(row,
                      {"benchmark", "algorithm", "accesses", "misses",
                       "miss_rate", "wall_ms", "blocks_per_sec"},
                      run_where);
        if (const JsonValue *taxonomy = row.find("taxonomy"))
            checkLayoutTaxonomy(*taxonomy,
                                asCount(row.at("misses"), run_where),
                                asCount(row.at("accesses"), run_where),
                                run_where + ".taxonomy");
        if (const JsonValue *sampling = row.find("sampling"))
            checkSamplingBlock(*sampling,
                               row.at("miss_rate").asNumber(),
                               run_where + ".sampling");
    }
}

/** Signed integer reader (deltas may be negative, unlike counts). */
std::int64_t
asDelta(const JsonValue &value, const std::string &where)
{
    requireData(value.kind() == JsonValue::Kind::kNumber,
                "expected a number", where);
    return static_cast<std::int64_t>(value.asNumber());
}

void
checkDecisionsDoc(const JsonValue &doc, const std::string &where)
{
    checkKeys(doc,
              {"topo_decisions", "algorithm", "program", "cache",
               "kept", "dropped", "coverage", "records"},
              where);
    checkRequired(doc,
                  {"topo_decisions", "algorithm", "kept", "dropped",
                   "records"},
                  where);
    const JsonValue &records = doc.at("records");
    requireData(records.isArray(), "records must be an array", where);
    requireData(asCount(doc.at("kept"), where) == records.size(),
                "kept count disagrees with the records array", where);
    asCount(doc.at("dropped"), where);
    for (std::size_t i = 0; i < records.size(); ++i) {
        const JsonValue &row = records.at(i);
        const std::string row_where =
            where + ".records[" + std::to_string(i) + "]";
        checkKeys(row,
                  {"step", "kind", "stage", "proc_a", "proc_b",
                   "weight", "chosen", "chosen_cost", "tie_break",
                   "alternatives"},
                  row_where);
        checkRequired(row,
                      {"step", "kind", "stage", "proc_a", "chosen",
                       "tie_break"},
                      row_where);
        const std::string &kind = row.at("kind").asString();
        requireData(kind == "merge" || kind == "place" ||
                        kind == "color" || kind == "split" ||
                        kind == "reject",
                    "unknown decision kind '" + kind + "'", row_where);
        if (const JsonValue *alts = row.find("alternatives")) {
            requireData(alts->isArray(),
                        "alternatives must be an array", row_where);
            for (const JsonValue &alt : alts->elements())
                checkKeys(alt, {"choice", "cost"},
                          row_where + ".alternatives");
        }
    }
}

void
checkDiffDoc(const JsonValue &doc, const std::string &where)
{
    checkKeys(doc,
              {"topo_diff", "program", "cache", "a", "b", "moved",
               "unmoved", "attributed", "miss_delta", "moves",
               "miss_delta_by_proc", "set_miss_delta", "pairs_created",
               "pairs_destroyed", "dropped_pairs_a", "dropped_pairs_b",
               "set_occupancy_delta", "decisions_algorithm",
               "moves_explained"},
              where);
    checkRequired(doc,
                  {"topo_diff", "program", "cache", "a", "b", "moved",
                   "unmoved", "attributed", "moves",
                   "set_occupancy_delta"},
                  where);
    for (const char *side : {"a", "b"}) {
        const JsonValue &s = doc.at(side);
        checkKeys(s, {"label", "accesses", "misses"},
                  where + "." + side);
        checkRequired(s, {"label", "accesses", "misses"},
                      where + "." + side);
    }
    const JsonValue &moves = doc.at("moves");
    requireData(moves.isArray(), "moves must be an array", where);
    requireData(asCount(doc.at("moved"), where) == moves.size(),
                "moved count disagrees with the moves array", where);
    for (std::size_t i = 0; i < moves.size(); ++i) {
        const JsonValue &row = moves.at(i);
        const std::string row_where =
            where + ".moves[" + std::to_string(i) + "]";
        checkKeys(row,
                  {"proc", "addr_a", "addr_b", "set_a", "set_b",
                   "miss_delta", "decision_steps"},
                  row_where);
        checkRequired(row, {"proc", "addr_a", "addr_b"}, row_where);
    }
    // The set-occupancy deltas of two complete layouts of one program
    // redistribute the same lines, so they must cancel exactly.
    std::int64_t occupancy_sum = 0;
    for (const JsonValue &row :
         doc.at("set_occupancy_delta").elements())
        occupancy_sum += asDelta(row.at("delta"),
                                 where + ".set_occupancy_delta");
    requireData(occupancy_sum == 0,
                "set_occupancy_delta sums to " +
                    std::to_string(occupancy_sum) + ", expected 0",
                where);
    if (!doc.at("attributed").asBool())
        return;
    // Exactness invariant: the per-procedure (and per-set) deltas sum
    // to the total miss delta between the two replays.
    checkRequired(doc,
                  {"miss_delta", "miss_delta_by_proc",
                   "set_miss_delta"},
                  where);
    const std::int64_t miss_delta =
        asDelta(doc.at("miss_delta"), where);
    const std::int64_t expected =
        asDelta(doc.at("b").at("misses"), where + ".b") -
        asDelta(doc.at("a").at("misses"), where + ".a");
    requireData(miss_delta == expected,
                "miss_delta disagrees with per-side miss counts",
                where);
    for (const char *field : {"miss_delta_by_proc", "set_miss_delta"}) {
        std::int64_t sum = 0;
        for (const JsonValue &row : doc.at(field).elements())
            sum += asDelta(row.at("delta"),
                           where + "." + field);
        requireData(sum == miss_delta,
                    std::string(field) + " sums to " +
                        std::to_string(sum) +
                        ", expected the total miss delta " +
                        std::to_string(miss_delta),
                    where);
    }
}

void
checkMetricsDoc(const JsonValue &doc, const std::string &where)
{
    checkKeys(doc,
              {"topo_metrics", "counters", "gauges", "histograms",
               "provenance"},
              where);
    checkRequired(doc,
                  {"topo_metrics", "counters", "gauges", "histograms"},
                  where);
    if (const JsonValue *provenance = doc.find("provenance"))
        checkProvenance(*provenance, where + ".provenance");
    const JsonValue &counters = doc.at("counters");
    requireData(counters.isObject(), "counters must be an object",
                where);
    for (const auto &[name, value] : counters.members())
        asCount(value, where + ".counters." + name);
}

/**
 * A topo_profile --json-out document. A key has one type at every
 * level: strings and booleans by name, drift a number or "inf", and
 * every other leaf a count.
 */
void
checkStoreDoc(const JsonValue &doc, const std::string &where)
{
    checkKeys(doc,
              {"topo_store", "command", "ingested", "sampling",
               "algorithm", "drift", "threshold", "replaced", "store",
               "decisions", "diff"},
              where);
    checkRequired(doc, {"topo_store", "command", "store"}, where);
    const JsonValue &store = doc.at("store");
    const std::initializer_list<const char *> store_keys = {
        "dir", "generation", "applied_seq", "shards", "total_runs",
        "total_bytes", "layout_algorithm", "drift", "open"};
    checkKeys(store, store_keys, where + ".store");
    checkRequired(store, store_keys, where + ".store");
    const std::initializer_list<const char *> open_keys = {
        "snapshot_generation", "salvaged", "replayed_records",
        "dropped_bytes", "dropped_records"};
    checkKeys(store.at("open"), open_keys, where + ".open");
    checkRequired(store.at("open"), open_keys, where + ".open");
    std::vector<const JsonValue *> objects = {&doc, &store,
                                              &store.at("open")};
    if (const JsonValue *decisions = doc.find("decisions")) {
        checkKeys(*decisions, {"kept", "dropped", "coverage"}, where);
        objects.push_back(decisions);
    }
    for (const JsonValue *object : objects) {
        for (const auto &[key, value] : object->members()) {
            const JsonValue::Kind kind = value.kind();
            if (key == "command" || key == "sampling" || key == "dir" ||
                key == "algorithm" || key == "layout_algorithm")
                requireData(kind == JsonValue::Kind::kString,
                            key + " must be a string", where);
            else if (key == "salvaged" || key == "replaced")
                requireData(kind == JsonValue::Kind::kBool,
                            key + " must be a boolean", where);
            else if (key == "drift" && kind == JsonValue::Kind::kString)
                requireData(value.asString() == "inf",
                            "drift must be a number or \"inf\"", where);
            else if (key != "store" && key != "open" &&
                     key != "decisions" && key != "diff")
                asCount(value, where + "." + key);
        }
    }
    // Every shard and every accepted placement is one journal record.
    requireData(asCount(store.at("shards"), where) <=
                    asCount(store.at("applied_seq"), where),
                "more shards than applied journal records", where);
    if (const JsonValue *diff = doc.find("diff"))
        checkDiffDoc(*diff, where + ".diff");
}

} // namespace

std::string
validateArtifactJson(const JsonValue &doc)
{
    requireData(doc.isObject(),
                "artifact root must be a JSON object",
                "validateArtifactJson");
    if (doc.find("topo_report_suite") != nullptr) {
        checkKeys(doc, {"topo_report_suite", "reports"}, "$");
        checkRequired(doc, {"topo_report_suite", "reports"}, "$");
        const JsonValue &reports = doc.at("reports");
        requireData(reports.isArray(), "reports must be an array",
                    "$");
        for (std::size_t i = 0; i < reports.size(); ++i)
            checkReportDoc(reports.at(i),
                           "$.reports[" + std::to_string(i) + "]");
        return "topo_report_suite";
    }
    if (doc.find("topo_report") != nullptr) {
        checkReportDoc(doc, "$");
        return "topo_report";
    }
    if (doc.find("topo_bench") != nullptr) {
        checkBenchDoc(doc, "$");
        return "topo_bench";
    }
    if (doc.find("topo_metrics") != nullptr) {
        checkMetricsDoc(doc, "$");
        return "topo_metrics";
    }
    if (doc.find("topo_decisions") != nullptr) {
        checkDecisionsDoc(doc, "$");
        return "topo_decisions";
    }
    if (doc.find("topo_diff") != nullptr) {
        checkDiffDoc(doc, "$");
        return "topo_diff";
    }
    if (doc.find("topo_store") != nullptr) {
        checkStoreDoc(doc, "$");
        return "topo_store";
    }
    failCorrupt("unrecognized artifact document (expected a "
                "topo_report, topo_report_suite, topo_bench, "
                "topo_metrics, topo_decisions, topo_diff, or topo_store "
                "marker)",
                "validateArtifactJson");
}

} // namespace topo
