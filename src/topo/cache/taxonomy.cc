#include "topo/cache/taxonomy.hh"

#include <algorithm>

#include "topo/util/error.hh"

namespace topo
{

// --- OrderStatTree -------------------------------------------------

std::uint32_t
OrderStatTree::allocNode(std::uint64_t key)
{
    std::uint32_t n;
    if (free_head_ != kNil) {
        n = free_head_;
        free_head_ = nodes_[n].left;
    } else {
        n = static_cast<std::uint32_t>(nodes_.size());
        nodes_.emplace_back();
    }
    nodes_[n] = Node{key, kNil, kNil, 1, 1};
    return n;
}

void
OrderStatTree::freeNode(std::uint32_t n)
{
    nodes_[n].left = free_head_;
    free_head_ = n;
}

void
OrderStatTree::pull(std::uint32_t n)
{
    Node &node = nodes_[n];
    node.size = 1 + sizeOf(node.left) + sizeOf(node.right);
    node.height = static_cast<std::int8_t>(
        1 + std::max(heightOf(node.left), heightOf(node.right)));
}

std::uint32_t
OrderStatTree::rotateLeft(std::uint32_t n)
{
    const std::uint32_t r = nodes_[n].right;
    nodes_[n].right = nodes_[r].left;
    nodes_[r].left = n;
    pull(n);
    pull(r);
    return r;
}

std::uint32_t
OrderStatTree::rotateRight(std::uint32_t n)
{
    const std::uint32_t l = nodes_[n].left;
    nodes_[n].left = nodes_[l].right;
    nodes_[l].right = n;
    pull(n);
    pull(l);
    return l;
}

std::uint32_t
OrderStatTree::rebalance(std::uint32_t n)
{
    pull(n);
    const int balance = heightOf(nodes_[n].left) -
                        heightOf(nodes_[n].right);
    if (balance > 1) {
        const std::uint32_t l = nodes_[n].left;
        if (heightOf(nodes_[l].left) < heightOf(nodes_[l].right))
            nodes_[n].left = rotateLeft(l);
        return rotateRight(n);
    }
    if (balance < -1) {
        const std::uint32_t r = nodes_[n].right;
        if (heightOf(nodes_[r].right) < heightOf(nodes_[r].left))
            nodes_[n].right = rotateRight(r);
        return rotateLeft(n);
    }
    return n;
}

std::uint32_t
OrderStatTree::insertRec(std::uint32_t n, std::uint32_t fresh)
{
    if (n == kNil)
        return fresh;
    if (nodes_[fresh].key < nodes_[n].key)
        nodes_[n].left = insertRec(nodes_[n].left, fresh);
    else
        nodes_[n].right = insertRec(nodes_[n].right, fresh);
    return rebalance(n);
}

void
OrderStatTree::insert(std::uint64_t key)
{
    // Allocate before descending: insertRec holds node indices across
    // recursive calls, so the vector must not grow mid-descent.
    const std::uint32_t fresh = allocNode(key);
    root_ = insertRec(root_, fresh);
}

std::uint32_t
OrderStatTree::detachMin(std::uint32_t n, std::uint32_t &min_out)
{
    if (nodes_[n].left == kNil) {
        min_out = n;
        return nodes_[n].right;
    }
    nodes_[n].left = detachMin(nodes_[n].left, min_out);
    return rebalance(n);
}

std::uint32_t
OrderStatTree::eraseRec(std::uint32_t n, std::uint64_t key)
{
    require(n != kNil, "OrderStatTree: erase of absent key");
    if (key < nodes_[n].key) {
        nodes_[n].left = eraseRec(nodes_[n].left, key);
    } else if (key > nodes_[n].key) {
        nodes_[n].right = eraseRec(nodes_[n].right, key);
    } else {
        const std::uint32_t left = nodes_[n].left;
        const std::uint32_t right = nodes_[n].right;
        freeNode(n);
        if (right == kNil)
            return left;
        std::uint32_t successor = kNil;
        const std::uint32_t rest = detachMin(right, successor);
        nodes_[successor].left = left;
        nodes_[successor].right = rest;
        return rebalance(successor);
    }
    return rebalance(n);
}

void
OrderStatTree::erase(std::uint64_t key)
{
    root_ = eraseRec(root_, key);
}

std::uint64_t
OrderStatTree::countGreater(std::uint64_t key) const
{
    std::uint64_t count = 0;
    std::uint32_t n = root_;
    while (n != kNil) {
        const Node &node = nodes_[n];
        if (key < node.key) {
            count += 1 + sizeOf(node.right);
            n = node.left;
        } else if (key > node.key) {
            n = node.right;
        } else {
            count += sizeOf(node.right);
            return count;
        }
    }
    fail("OrderStatTree: countGreater of absent key");
}

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
    if (bucket == kReuseColdBucket - 1)
        return ">= " + std::to_string(1ULL << (bucket - 1));
    return "[" + std::to_string(1ULL << (bucket - 1)) + ", " +
           std::to_string(1ULL << bucket) + ")";
}

// --- TaxonomySink --------------------------------------------------

TaxonomySink::TaxonomySink(const Program &program,
                           std::uint32_t program_line_count,
                           const CacheConfig &config)
    : program_(&program), shadow_lines_(config.lineCount())
{
    require(shadow_lines_ > 0,
            "TaxonomySink: cache must hold at least one line");
    last_ts_.assign(program_line_count, 0);
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
