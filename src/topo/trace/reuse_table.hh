/**
 * @file
 * Reuse table: the LRU stack distance of every first-pass fetch of a
 * FetchStream, one byte each.
 *
 * The stack distance of a fetch (distinct lines touched since the
 * previous fetch of its line) depends only on the stream's program
 * line ids, never on a layout: layouts are validated non-overlapping,
 * so ids and placed line addresses are in bijection. Every layout
 * replayed against one stream therefore reads the same distances, and
 * FetchStream::reuseTable() computes them once per stream.
 *
 * Only first passes need the walk. A later pass of a run re-fetches
 * its line_count distinct lines in the order the previous pass left
 * them, so each of its fetches has distance line_count - 1, and the
 * order of last accesses, which is all that later distances depend
 * on, does not change. The table holds one entry per first-pass
 * fetch, in stream order: run r's first pass starts at the sum of
 * line_count over the runs before it.
 *
 * An entry packs the log2 reuse bucket of the distance (kReuseColdBucket
 * for a first touch) with a shadow-hit bit: whether a fully-associative
 * LRU cache of the table's shadow line count holds the line, i.e.
 * whether the distance is below that count (Mattson's inclusion
 * property).
 */

#ifndef TOPO_TRACE_REUSE_TABLE_HH
#define TOPO_TRACE_REUSE_TABLE_HH

#include <bit>
#include <cstdint>
#include <vector>

#include "topo/obs/timeline.hh"

namespace topo
{

class FetchStream;

/** The bits of a reuse-table entry that hold its reuse bucket. */
inline constexpr std::uint8_t kReuseBucketMask = 0x3f;
/** Entry bit: the fully-associative LRU shadow hits this fetch. */
inline constexpr std::uint8_t kShadowHitBit = 0x80;

/** Log2 bucket for stack distance @p d (0 -> 0, else bit width). */
inline std::uint8_t
reuseBucketOf(std::uint64_t d)
{
    if (d == 0)
        return 0;
    const int width = std::bit_width(d);
    return static_cast<std::uint8_t>(width < 33 ? width : 32);
}

/** The entry of a fetch at stack distance @p d under a shadow of
 *  @p shadow_lines lines. */
inline std::uint8_t
reuseEntry(std::uint64_t d, std::uint64_t shadow_lines)
{
    return static_cast<std::uint8_t>(
        reuseBucketOf(d) | (d < shadow_lines ? kShadowHitBit : 0));
}

/**
 * Walk @p stream's first passes with Olken's algorithm and return
 * their entries for a shadow of @p shadow_lines lines (see the file
 * comment). Callers replaying layouts use the memoised
 * FetchStream::reuseTable() instead.
 */
std::vector<std::uint8_t> buildReuseTable(const FetchStream &stream,
                                          std::uint64_t shadow_lines);

} // namespace topo

#endif // TOPO_TRACE_REUSE_TABLE_HH
