/**
 * @file
 * ChunkMap: the statically-determined procedure chunks of Section 4.1.
 *
 * TRG_place records temporal relationships at a granularity finer than
 * whole procedures so that procedures larger than the cache can still
 * be aligned profitably. A ChunkMap slices every procedure into fixed
 * size chunks (the paper found 256 bytes to work well) and provides the
 * bidirectional id mapping used by the TRG builder and merge_nodes.
 */

#ifndef TOPO_PROFILE_CHUNK_MAP_HH
#define TOPO_PROFILE_CHUNK_MAP_HH

#include <cstdint>
#include <vector>

#include "topo/program/program.hh"
#include "topo/profile/weighted_graph.hh"

namespace topo
{

/** Global chunk id (dense across all procedures). */
using ChunkId = BlockId;

/** Static chunking of a program at a fixed chunk size. */
class ChunkMap
{
  public:
    /** Default chunk size from the paper (Section 4.1). */
    static constexpr std::uint32_t kDefaultChunkBytes = 256;

    /**
     * Build the chunk map.
     *
     * @param program     Procedure inventory.
     * @param chunk_bytes Chunk size; must be non-zero.
     */
    ChunkMap(const Program &program,
             std::uint32_t chunk_bytes = kDefaultChunkBytes);

    /** Chunk size in bytes. */
    std::uint32_t chunkBytes() const { return chunk_bytes_; }

    /** Total number of chunks across all procedures. */
    std::size_t chunkCount() const { return chunk_proc_.size(); }

    /** Number of chunks of one procedure: ceil(size / chunk_bytes). */
    std::uint32_t chunksOf(ProcId proc) const;

    /** Global id of chunk @p index of procedure @p proc. */
    ChunkId chunkId(ProcId proc, std::uint32_t index) const;

    /** Procedure owning a chunk. */
    ProcId procOf(ChunkId chunk) const;

    /**
     * Byte size of a chunk: chunk_bytes except possibly for the last
     * chunk of a procedure.
     */
    std::uint32_t chunkSizeBytes(ChunkId chunk) const;

    /**
     * Chunk containing byte @p offset of procedure @p proc.
     */
    ChunkId chunkAt(ProcId proc, std::uint32_t offset) const;

    /**
     * Chunk covering cache line @p line_in_proc of a procedure laid out
     * from its start, for line size @p line_bytes. Used by merge_nodes
     * to identify which chunk occupies each cache line.
     */
    ChunkId chunkAtLine(ProcId proc, std::uint32_t line_in_proc,
                        std::uint32_t line_bytes) const;

  private:
    std::uint32_t chunk_bytes_;
    std::vector<ChunkId> first_chunk_;     // per procedure
    std::vector<ProcId> chunk_proc_;       // per chunk
    std::vector<std::uint32_t> chunk_size_; // per chunk, bytes
};

} // namespace topo

#endif // TOPO_PROFILE_CHUNK_MAP_HH
