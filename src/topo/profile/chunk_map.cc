#include "topo/profile/chunk_map.hh"

#include <algorithm>

#include "topo/util/error.hh"

namespace topo
{

ChunkMap::ChunkMap(const Program &program, std::uint32_t chunk_bytes)
    : chunk_bytes_(chunk_bytes)
{
    require(chunk_bytes > 0, "ChunkMap: zero chunk size");
    first_chunk_.reserve(program.procCount());
    for (std::size_t i = 0; i < program.procCount(); ++i) {
        const auto id = static_cast<ProcId>(i);
        const std::uint32_t size = program.proc(id).size_bytes;
        const std::uint32_t count = (size + chunk_bytes - 1) / chunk_bytes;
        first_chunk_.push_back(static_cast<ChunkId>(chunk_size_.size()));
        for (std::uint32_t c = 0; c < count; ++c) {
            const std::uint32_t begin = c * chunk_bytes;
            chunk_size_.push_back(std::min(chunk_bytes, size - begin));
        }
    }
}

std::uint32_t
ChunkMap::chunksOf(ProcId proc) const
{
    require(proc < first_chunk_.size(), "ChunkMap::chunksOf: invalid proc");
    const ChunkId first = first_chunk_[proc];
    const ChunkId next = (proc + 1 < first_chunk_.size())
                             ? first_chunk_[proc + 1]
                             : static_cast<ChunkId>(chunk_size_.size());
    return next - first;
}

ChunkId
ChunkMap::chunkId(ProcId proc, std::uint32_t index) const
{
    require(index < chunksOf(proc), "ChunkMap::chunkId: index out of range");
    return first_chunk_[proc] + index;
}

std::uint32_t
ChunkMap::chunkSizeBytes(ChunkId chunk) const
{
    require(chunk < chunk_size_.size(),
            "ChunkMap::chunkSizeBytes: invalid chunk");
    return chunk_size_[chunk];
}

ChunkId
ChunkMap::chunkAt(ProcId proc, std::uint32_t offset) const
{
    const std::uint32_t index = offset / chunk_bytes_;
    return chunkId(proc, index);
}

ChunkId
ChunkMap::chunkAtLine(ProcId proc, std::uint32_t line_in_proc,
                      std::uint32_t line_bytes) const
{
    require(line_bytes > 0, "ChunkMap::chunkAtLine: zero line size");
    // A line wholly inside one chunk when chunk_bytes % line_bytes == 0;
    // otherwise attribute the line to the chunk holding its first byte.
    const std::uint64_t byte =
        static_cast<std::uint64_t>(line_in_proc) * line_bytes;
    return chunkAt(proc, static_cast<std::uint32_t>(byte));
}

} // namespace topo
