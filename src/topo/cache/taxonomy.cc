#include "topo/cache/taxonomy.hh"

#include <algorithm>

#include "topo/util/error.hh"

namespace topo
{

std::string
reuseBucketMetricName(std::size_t bucket)
{
    require(bucket < kReuseBucketCount,
            "reuseBucketMetricName: bucket out of range");
    if (bucket == kReuseColdBucket)
        return "taxonomy.reuse.cold";
    std::string name = "taxonomy.reuse.b";
    name += static_cast<char>('0' + bucket / 10);
    name += static_cast<char>('0' + bucket % 10);
    return name;
}

std::string
reuseBucketLabel(std::size_t bucket)
{
    require(bucket < kReuseBucketCount,
            "reuseBucketLabel: bucket out of range");
    if (bucket == kReuseColdBucket)
        return "cold";
    if (bucket == 0)
        return "0";
    std::string label;
    label.reserve(48);
    if (bucket == kReuseColdBucket - 1) {
        label.append(">= ").append(std::to_string(1ULL << (bucket - 1)));
        return label;
    }
    label.append("[")
        .append(std::to_string(1ULL << (bucket - 1)))
        .append(", ")
        .append(std::to_string(1ULL << bucket))
        .append(")");
    return label;
}

// --- TaxonomySink --------------------------------------------------

TaxonomySink::TaxonomySink(const Program &program,
                           std::uint32_t program_line_count,
                           const CacheConfig &config)
    : program_(&program), shadow_lines_(config.lineCount())
{
    require(program_line_count < (1u << 30),
            "TaxonomySink: 2^30 or more program lines overflow the "
            "32-bit access times");
    require(shadow_lines_ > 0,
            "TaxonomySink: cache must hold at least one line");
    compulsory_by_proc_.assign(program.procCount(), 0);
    capacity_by_proc_.assign(program.procCount(), 0);
    conflict_by_proc_.assign(program.procCount(), 0);
}

std::vector<ProcTaxonomy>
TaxonomySink::topProcs(std::size_t k) const
{
    std::vector<ProcTaxonomy> all;
    for (std::size_t i = 0; i < conflict_by_proc_.size(); ++i) {
        const ProcTaxonomy row{static_cast<ProcId>(i),
                               compulsory_by_proc_[i],
                               capacity_by_proc_[i],
                               conflict_by_proc_[i]};
        if (row.compulsory == 0 && row.capacity == 0 &&
            row.conflict == 0)
            continue;
        all.push_back(row);
    }
    std::sort(all.begin(), all.end(),
              [](const ProcTaxonomy &a, const ProcTaxonomy &b) {
                  if (a.conflict != b.conflict)
                      return a.conflict > b.conflict;
                  return a.proc < b.proc;
              });
    if (all.size() > k)
        all.resize(k);
    return all;
}

JsonValue
TaxonomySink::toJson(std::size_t top_k) const
{
    JsonValue root = JsonValue::object();
    root.set("compulsory",
             JsonValue::number(static_cast<double>(compulsory_)));
    root.set("capacity",
             JsonValue::number(static_cast<double>(capacity_)));
    root.set("conflict",
             JsonValue::number(static_cast<double>(conflict_)));
    root.set("shadow_lines",
             JsonValue::number(static_cast<double>(shadow_lines_)));

    JsonValue hist = JsonValue::array();
    for (std::uint64_t count : reuse_hist_)
        hist.push(JsonValue::number(static_cast<double>(count)));
    root.set("reuse_hist", std::move(hist));

    JsonValue procs = JsonValue::array();
    for (const ProcTaxonomy &row : topProcs(top_k)) {
        JsonValue entry = JsonValue::object();
        entry.set("proc",
                  JsonValue::string(program_->proc(row.proc).name));
        entry.set("compulsory",
                  JsonValue::number(
                      static_cast<double>(row.compulsory)));
        entry.set("capacity", JsonValue::number(
                                  static_cast<double>(row.capacity)));
        entry.set("conflict", JsonValue::number(
                                  static_cast<double>(row.conflict)));
        procs.push(std::move(entry));
    }
    root.set("top_procs", std::move(procs));
    return root;
}

} // namespace topo
