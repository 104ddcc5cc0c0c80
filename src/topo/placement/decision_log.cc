/**
 * @file
 * DecisionLog implementation: bounded recording, JSON round-trip,
 * and the explain.* metrics surface.
 */

#include "topo/placement/decision_log.hh"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <vector>

#include "topo/obs/metrics.hh"
#include "topo/util/error.hh"

namespace topo
{

const char *
decisionKindName(DecisionKind kind)
{
    switch (kind)
    {
    case DecisionKind::kMerge:
        return "merge";
    case DecisionKind::kPlace:
        return "place";
    case DecisionKind::kColor:
        return "color";
    case DecisionKind::kSplit:
        return "split";
    case DecisionKind::kReject:
        return "reject";
    }
    return "merge";
}

DecisionKind
decisionKindFromName(const std::string &name)
{
    if (name == "merge")
        return DecisionKind::kMerge;
    if (name == "place")
        return DecisionKind::kPlace;
    if (name == "color")
        return DecisionKind::kColor;
    if (name == "split")
        return DecisionKind::kSplit;
    if (name == "reject")
        return DecisionKind::kReject;
    failCorrupt("unknown decision kind \"" + name + "\"");
}

DecisionLog::DecisionLog() : DecisionLog(Options{}) {}

DecisionLog::DecisionLog(Options options) : options_(options)
{
    if (options_.top_k > DecisionRecord::kMaxAlternatives)
        options_.top_k = DecisionRecord::kMaxAlternatives;
    records_.reserve(options_.max_records);
}

void
DecisionLog::record(DecisionRecord rec)
{
    if (records_.size() >= options_.max_records)
    {
        ++dropped_;
        return;
    }
    rec.step = records_.size() + dropped_;
    records_.push_back(rec);
}

void
DecisionLog::recordChoice(DecisionKind kind,
                          const char *stage,
                          ProcId a,
                          ProcId b,
                          double weight,
                          std::uint64_t chosen,
                          const std::vector<double> &cost_by_choice,
                          const char *tie_break)
{
    DecisionRecord rec;
    rec.kind = kind;
    rec.stage = stage;
    rec.a = a;
    rec.b = b;
    rec.weight = weight;
    rec.chosen = chosen;
    rec.chosen_cost =
        chosen < cost_by_choice.size() ? cost_by_choice[chosen] : 0.0;
    rec.tie_break = tie_break;
    // Top-k runner-ups: k passes of a min-scan (ascending cost, ties
    // by smaller choice — the same order every algorithm scans in).
    // k is tiny, so k*n beats sorting a copy of the cost array.
    std::uint64_t taken[DecisionRecord::kMaxAlternatives];
    for (std::uint32_t k = 0; k < options_.top_k; ++k)
    {
        std::uint64_t best = cost_by_choice.size();
        for (std::uint64_t c = 0; c < cost_by_choice.size(); ++c)
        {
            if (c == chosen)
                continue;
            bool seen = false;
            for (std::uint32_t j = 0; j < k; ++j)
                seen = seen || taken[j] == c;
            if (seen)
                continue;
            if (best == cost_by_choice.size() ||
                cost_by_choice[c] < cost_by_choice[best])
                best = c;
        }
        if (best == cost_by_choice.size())
            break;
        taken[k] = best;
        rec.alternatives[k] =
            DecisionRecord::Alternative{best, cost_by_choice[best]};
        rec.alternative_count = k + 1;
    }
    record(rec);
}

void
DecisionLog::recordPlace(const char *stage,
                         ProcId proc,
                         std::uint64_t address,
                         double heat,
                         const char *tie_break)
{
    DecisionRecord rec;
    rec.kind = DecisionKind::kPlace;
    rec.stage = stage;
    rec.a = proc;
    rec.weight = heat;
    rec.chosen = address;
    rec.tie_break = tie_break;
    record(rec);
}

void
DecisionLog::clear()
{
    records_.clear();
    dropped_ = 0;
}

double
DecisionLog::coverage(const Program &program) const
{
    if (program.procCount() == 0)
        return 1.0;
    std::vector<bool> seen(program.procCount(), false);
    for (const DecisionRecord &rec : records_)
    {
        if (rec.a < seen.size())
            seen[rec.a] = true;
        if (rec.b < seen.size())
            seen[rec.b] = true;
    }
    std::size_t covered = 0;
    for (bool s : seen)
        covered += s ? 1 : 0;
    return static_cast<double>(covered) /
           static_cast<double>(program.procCount());
}

JsonValue
DecisionLog::toJson(const Program &program) const
{
    auto procName = [&](ProcId id) -> JsonValue {
        if (id == kInvalidProc || id >= program.procCount())
            return JsonValue::string("");
        return JsonValue::string(program.proc(id).name);
    };

    JsonValue doc = JsonValue::object();
    doc.set("topo_decisions", JsonValue::number(1));
    doc.set("algorithm", JsonValue::string(algorithm_));
    doc.set("program", JsonValue::string(program.name()));
    doc.set("cache", JsonValue::string(cache_.describe()));
    doc.set("kept", JsonValue::number(static_cast<double>(kept())));
    doc.set("dropped", JsonValue::number(static_cast<double>(dropped_)));
    doc.set("coverage", JsonValue::number(coverage(program)));

    JsonValue rows = JsonValue::array();
    for (const DecisionRecord &rec : records_)
    {
        JsonValue row = JsonValue::object();
        row.set("step", JsonValue::number(static_cast<double>(rec.step)));
        row.set("kind", JsonValue::string(decisionKindName(rec.kind)));
        row.set("stage", JsonValue::string(rec.stage));
        row.set("proc_a", procName(rec.a));
        row.set("proc_b", procName(rec.b));
        row.set("weight", JsonValue::number(rec.weight));
        row.set("chosen", JsonValue::number(static_cast<double>(rec.chosen)));
        row.set("chosen_cost", JsonValue::number(rec.chosen_cost));
        row.set("tie_break", JsonValue::string(rec.tie_break));
        JsonValue alts = JsonValue::array();
        for (std::uint32_t k = 0; k < rec.alternative_count; ++k)
        {
            JsonValue alt = JsonValue::object();
            alt.set("choice",
                    JsonValue::number(
                        static_cast<double>(rec.alternatives[k].choice)));
            alt.set("cost", JsonValue::number(rec.alternatives[k].cost));
            alts.push(std::move(alt));
        }
        row.set("alternatives", std::move(alts));
        rows.push(std::move(row));
    }
    doc.set("records", std::move(rows));
    return doc;
}

void
DecisionLog::publishMetrics(const Program &program) const
{
    MetricsRegistry &reg = MetricsRegistry::current();
    reg.counter("explain.records_kept").add(kept());
    reg.counter("explain.records_dropped").add(dropped_);
    reg.gauge("explain.coverage").set(coverage(program));
}

LoadedDecisions
snapshotDecisions(const DecisionLog &log, const Program &program)
{
    auto procName = [&](ProcId id) -> std::string {
        if (id == kInvalidProc || id >= program.procCount())
            return "";
        return program.proc(id).name;
    };
    LoadedDecisions out;
    out.algorithm = log.algorithm();
    out.kept = log.kept();
    out.dropped = log.dropped();
    out.rows.reserve(log.records().size());
    for (const DecisionRecord &rec : log.records())
    {
        LoadedDecisions::Row row;
        row.step = rec.step;
        row.kind = decisionKindName(rec.kind);
        row.stage = rec.stage;
        row.proc_a = procName(rec.a);
        row.proc_b = procName(rec.b);
        row.weight = rec.weight;
        row.chosen = rec.chosen;
        row.tie_break = rec.tie_break;
        out.rows.push_back(std::move(row));
    }
    return out;
}

std::vector<std::size_t>
LoadedDecisions::rowsFor(const std::string &proc_name) const
{
    std::vector<std::size_t> hits;
    for (std::size_t i = 0; i < rows.size(); ++i)
        if (rows[i].proc_a == proc_name || rows[i].proc_b == proc_name)
            hits.push_back(i);
    return hits;
}

LoadedDecisions
readDecisionFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        fail("cannot open decisions file: " + path);
    std::ostringstream text;
    text << in.rdbuf();

    LoadedDecisions out;
    try
    {
        JsonValue doc = JsonValue::parse(text.str());
        requireData(doc.isObject(), "decisions file is not a JSON object",
                    path);
        const JsonValue *marker = doc.find("topo_decisions");
        requireData(marker != nullptr, "missing topo_decisions marker", path);
        out.algorithm = doc.at("algorithm").asString();
        out.kept = static_cast<std::uint64_t>(doc.at("kept").asNumber());
        out.dropped = static_cast<std::uint64_t>(doc.at("dropped").asNumber());
        const JsonValue &rows = doc.at("records");
        requireData(rows.isArray(), "records is not an array", path);
        requireData(rows.size() == out.kept,
                    "kept count disagrees with records array", path);
        for (const JsonValue &row : rows.elements())
        {
            LoadedDecisions::Row r;
            r.step = static_cast<std::uint64_t>(row.at("step").asNumber());
            r.kind = row.at("kind").asString();
            decisionKindFromName(r.kind);
            r.stage = row.at("stage").asString();
            r.proc_a = row.at("proc_a").asString();
            r.proc_b = row.at("proc_b").asString();
            r.weight = row.at("weight").asNumber();
            r.chosen =
                static_cast<std::uint64_t>(row.at("chosen").asNumber());
            r.tie_break = row.at("tie_break").asString();
            out.rows.push_back(std::move(r));
        }
    }
    catch (const TopoError &err)
    {
        // Parse failures surface as generic user errors; anything that
        // goes wrong past the successful open is corrupt input.
        if (err.code() == ErrCode::kCorrupt)
            throw;
        failCorrupt(err.what(), path);
    }
    return out;
}

} // namespace topo
