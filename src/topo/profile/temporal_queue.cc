#include "topo/profile/temporal_queue.hh"

#include "topo/util/error.hh"

namespace topo
{

TemporalQueue::TemporalQueue(std::vector<std::uint32_t> block_sizes,
                             std::uint64_t byte_budget)
    : sizes_(std::move(block_sizes)),
      byte_budget_(byte_budget),
      prev_(sizes_.size(), kNone),
      next_(sizes_.size(), kNone),
      resident_(sizes_.size(), 0)
{
    require(byte_budget_ > 0, "TemporalQueue: zero byte budget");
}

void
TemporalQueue::detach(BlockId id)
{
    const BlockId p = prev_[id];
    const BlockId n = next_[id];
    if (p != kNone)
        next_[p] = n;
    else
        head_ = n;
    if (n != kNone)
        prev_[n] = p;
    else
        tail_ = p;
    prev_[id] = kNone;
    next_[id] = kNone;
    resident_[id] = false;
    --count_;
    resident_bytes_ -= sizes_[id];
}

void
TemporalQueue::append(BlockId id)
{
    prev_[id] = tail_;
    next_[id] = kNone;
    if (tail_ != kNone)
        next_[tail_] = id;
    else
        head_ = id;
    tail_ = id;
    resident_[id] = true;
    ++count_;
    resident_bytes_ += sizes_[id];
}

void
TemporalQueue::trim()
{
    // Section 3: "remove the oldest members of Q until the removal of
    // the next least-recently-used identifier would cause the total
    // size of remaining code blocks to be less than [the budget]".
    while (head_ != kNone &&
           resident_bytes_ - sizes_[head_] >= byte_budget_) {
        detach(head_);
        ++evictions_;
    }
}

bool
TemporalQueue::reference(BlockId id, std::vector<BlockId> &between)
{
    require(id < sizes_.size(), "TemporalQueue::reference: id out of range");
    between.clear();
    if (resident_[id]) {
        // Collect everything after the previous occurrence: those are
        // exactly the blocks referenced between the two references.
        for (BlockId cur = next_[id]; cur != kNone; cur = next_[cur])
            between.push_back(cur);
        detach(id);
        append(id);
        return true;
    }
    append(id);
    trim();
    return false;
}

void
TemporalQueue::touch(BlockId id)
{
    require(id < sizes_.size(), "TemporalQueue::touch: id out of range");
    if (resident_[id]) {
        detach(id);
        append(id);
        return;
    }
    append(id);
    trim();
}

std::vector<BlockId>
TemporalQueue::contents() const
{
    std::vector<BlockId> out;
    out.reserve(count_);
    for (BlockId cur = head_; cur != kNone; cur = next_[cur])
        out.push_back(cur);
    return out;
}

void
TemporalQueue::clear()
{
    for (BlockId cur = head_; cur != kNone;) {
        const BlockId nxt = next_[cur];
        prev_[cur] = kNone;
        next_[cur] = kNone;
        resident_[cur] = false;
        cur = nxt;
    }
    head_ = tail_ = kNone;
    count_ = 0;
    resident_bytes_ = 0;
    evictions_ = 0;
}

} // namespace topo
