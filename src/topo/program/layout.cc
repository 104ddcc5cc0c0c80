#include "topo/program/layout.hh"

#include <algorithm>

#include "topo/util/error.hh"

namespace topo
{

namespace
{

std::uint64_t
alignUp(std::uint64_t value, std::uint64_t alignment)
{
    return (value + alignment - 1) / alignment * alignment;
}

} // namespace

Layout::Layout(std::size_t proc_count)
    : address_(proc_count, kUnassigned)
{
}

bool
Layout::complete() const
{
    return std::all_of(address_.begin(), address_.end(),
                       [](std::uint64_t a) { return a != kUnassigned; });
}

void
Layout::setAddress(ProcId id, std::uint64_t address)
{
    require(id < address_.size(), "Layout::setAddress: invalid id");
    require(address != kUnassigned, "Layout::setAddress: reserved address");
    address_[id] = address;
}

std::uint64_t
Layout::address(ProcId id) const
{
    require(id < address_.size(), "Layout::address: invalid id");
    require(address_[id] != kUnassigned,
            "Layout::address: procedure has no address");
    return address_[id];
}

bool
Layout::assigned(ProcId id) const
{
    require(id < address_.size(), "Layout::assigned: invalid id");
    return address_[id] != kUnassigned;
}

std::uint64_t
Layout::startLine(ProcId id, std::uint32_t line_bytes) const
{
    require(line_bytes > 0, "Layout::startLine: zero line size");
    return address(id) / line_bytes;
}

std::uint64_t
Layout::extent(const Program &program) const
{
    require(program.procCount() == address_.size(),
            "Layout::extent: program/layout size mismatch");
    std::uint64_t end = 0;
    for (std::size_t i = 0; i < address_.size(); ++i) {
        if (address_[i] == kUnassigned)
            continue;
        end = std::max(end, address_[i] +
                                program.proc(static_cast<ProcId>(i))
                                    .size_bytes);
    }
    return end;
}

std::vector<ProcId>
Layout::orderByAddress() const
{
    std::vector<ProcId> order;
    order.reserve(address_.size());
    for (std::size_t i = 0; i < address_.size(); ++i) {
        if (address_[i] != kUnassigned)
            order.push_back(static_cast<ProcId>(i));
    }
    std::sort(order.begin(), order.end(), [this](ProcId a, ProcId b) {
        if (address_[a] != address_[b])
            return address_[a] < address_[b];
        return a < b;
    });
    return order;
}

void
Layout::validate(const Program &program, std::uint32_t line_bytes) const
{
    require(program.procCount() == address_.size(),
            "Layout::validate: program/layout size mismatch");
    require(line_bytes > 0, "Layout::validate: zero line size");
    for (std::size_t i = 0; i < address_.size(); ++i) {
        const auto id = static_cast<ProcId>(i);
        if (address_[i] == kUnassigned)
            fail("Layout::validate: procedure '" + program.proc(id).name +
                     "' has no address");
        if (address_[i] % line_bytes != 0)
            fail("Layout::validate: procedure '" + program.proc(id).name +
                     "' is not line-aligned");
        // The cache models reserve line address 2^64-1 as their
        // invalid-frame sentinel; a procedure ending at the very top
        // of the address space would fetch it and alias every empty
        // frame as resident.
        const std::uint64_t size = program.proc(id).size_bytes;
        if (size > ~std::uint64_t{0} - address_[i] ||
            (size != 0 &&
             (address_[i] + size - 1) / line_bytes == ~std::uint64_t{0}))
            fail("Layout::validate: procedure '" + program.proc(id).name +
                     "' reaches the reserved top-of-address-space "
                     "cache line");
    }
    const std::vector<ProcId> order = orderByAddress();
    for (std::size_t i = 1; i < order.size(); ++i) {
        const ProcId prev = order[i - 1];
        const ProcId cur = order[i];
        const std::uint64_t prev_end =
            address_[prev] + program.proc(prev).size_bytes;
        if (address_[cur] < prev_end)
            fail("Layout::validate: procedures '" + program.proc(prev).name +
                     "' and '" + program.proc(cur).name +
                     "' overlap in the address space");
    }
}

Layout
Layout::defaultOrder(const Program &program, std::uint32_t line_bytes,
                     std::uint32_t pad_bytes)
{
    require(line_bytes > 0, "Layout::defaultOrder: zero line size");
    Layout layout(program.procCount());
    std::uint64_t cursor = 0;
    for (std::size_t i = 0; i < program.procCount(); ++i) {
        const auto id = static_cast<ProcId>(i);
        cursor = alignUp(cursor, line_bytes);
        layout.setAddress(id, cursor);
        cursor += program.proc(id).size_bytes;
        cursor += pad_bytes;
    }
    return layout;
}

Layout
Layout::fromOrder(const Program &program, const std::vector<ProcId> &order,
                  std::uint32_t line_bytes)
{
    require(line_bytes > 0, "Layout::fromOrder: zero line size");
    Layout layout(program.procCount());
    std::uint64_t cursor = 0;
    std::vector<bool> seen(program.procCount(), false);
    auto place = [&](ProcId id) {
        require(id < program.procCount(), "Layout::fromOrder: invalid id");
        if (seen[id])
            fail("Layout::fromOrder: duplicate procedure '" +
                     program.proc(id).name + "' in order");
        seen[id] = true;
        cursor = alignUp(cursor, line_bytes);
        layout.setAddress(id, cursor);
        cursor += program.proc(id).size_bytes;
    };
    for (ProcId id : order)
        place(id);
    for (std::size_t i = 0; i < program.procCount(); ++i) {
        if (!seen[i])
            place(static_cast<ProcId>(i));
    }
    return layout;
}

Layout
Layout::fromCacheOffsets(const Program &program,
                         const std::vector<ProcId> &order,
                         const std::vector<std::uint32_t> &target_line_offsets,
                         std::uint32_t line_bytes, std::uint32_t cache_lines)
{
    require(line_bytes > 0 && cache_lines > 0,
            "Layout::fromCacheOffsets: zero line size or cache lines");
    require(target_line_offsets.size() == program.procCount(),
            "Layout::fromCacheOffsets: offsets size mismatch");
    Layout layout(program.procCount());
    std::uint64_t cursor_line = 0;
    std::vector<bool> seen(program.procCount(), false);
    for (ProcId id : order) {
        require(id < program.procCount(),
                "Layout::fromCacheOffsets: invalid id");
        require(!seen[id], "Layout::fromCacheOffsets: duplicate procedure");
        seen[id] = true;
        const std::uint32_t want = target_line_offsets[id] % cache_lines;
        const std::uint32_t have =
            static_cast<std::uint32_t>(cursor_line % cache_lines);
        const std::uint32_t gap = (want + cache_lines - have) % cache_lines;
        cursor_line += gap;
        layout.setAddress(id, cursor_line * line_bytes);
        cursor_line += program.sizeInLines(id, line_bytes);
    }
    for (std::size_t i = 0; i < program.procCount(); ++i) {
        require(seen[i], "Layout::fromCacheOffsets: order must cover all "
                         "procedures");
    }
    return layout;
}

Layout
Layout::withPadding(const Layout &base, const Program &program,
                    std::uint32_t pad_bytes, std::uint32_t line_bytes)
{
    base.validate(program, line_bytes);
    Layout layout(program.procCount());
    const std::vector<ProcId> order = base.orderByAddress();
    std::uint64_t shift = 0;
    std::uint64_t prev_end = 0;
    for (ProcId id : order) {
        const std::uint64_t original = base.address(id);
        require(original >= prev_end, "Layout::withPadding: base overlaps");
        layout.setAddress(id, original + shift);
        prev_end = original + program.proc(id).size_bytes;
        // The pad lands after this procedure, shifting all later ones.
        shift += alignUp(pad_bytes, line_bytes);
    }
    return layout;
}

} // namespace topo
