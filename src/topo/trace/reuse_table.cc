#include "topo/trace/reuse_table.hh"

#include <algorithm>
#include <bit>

#include "topo/trace/fetch_stream.hh"
#include "topo/util/error.hh"

namespace topo
{

std::vector<std::uint8_t>
buildReuseTable(const FetchStream &stream, std::uint64_t shadow_lines)
{
    // Olken's algorithm: stamp every access with a clock; a time is
    // live while it is some line's last access time. A line last
    // touched at prev has stack distance live - (live times <= prev).
    // The live times are a bitmap of 64-time blocks, and a Fenwick
    // tree over the blocks counts the live times in whole blocks, so
    // a count is one tree walk plus a popcount, and the tree is 64
    // times smaller than one over times. The clock only grows, so the
    // block holding `now` (the top block) stays out of the tree until
    // the clock leaves it: no count ever needs it, since every earlier
    // time lies in it or below it.
    const std::uint32_t lines = stream.programLineCount();
    require(lines < (1u << 30),
            "buildReuseTable: 2^30 or more program lines overflow the "
            "32-bit access times");
    std::size_t first_pass_fetches = 0;
    for (const FetchRun &run : stream.runs())
        first_pass_fetches += run.line_count;
    std::vector<std::uint8_t> table(first_pass_fetches);

    // Times run from 1 to twice the line count, then compact.
    const std::uint32_t time_limit = 2 * lines;
    const std::uint32_t blocks = time_limit / 64 + 1;
    /** Last access time per program line; 0 = never touched. */
    std::vector<std::uint32_t> last_time(lines, 0);
    /** Line accessed at each time, 1-based; meaningful at live times. */
    std::vector<std::uint32_t> line_at(time_limit + 1, 0);
    /** Bit t % 64 of block t / 64: time t is live. */
    std::vector<std::uint64_t> live_bits(blocks, 0);
    /** Fenwick tree over blocks 1..blocks (block b at node b + 1):
     *  live times per block, for the blocks below the top block. */
    std::vector<std::uint32_t> fenwick(blocks + 1, 0);
    std::uint32_t now = 0;
    std::uint32_t live = 0;
    std::uint32_t top = 0;

    // Live times in blocks [0, b).
    auto live_below = [&](std::uint32_t b) {
        std::uint32_t count = 0;
        for (; b != 0; b &= b - 1)
            count += fenwick[b];
        return count;
    };
    // Add delta (modulo 2^32, so ~0 subtracts one) to block b's count.
    auto add_live = [&](std::uint32_t b, std::uint32_t delta) {
        for (++b; b <= blocks; b += b & (0u - b))
            fenwick[b] += delta;
    };
    // Renumber the live times 1..live in order and rebuild the bitmap
    // and the tree. Only the order of live times matters, so no
    // distance changes. New times never exceed old ones, so line_at is
    // rewritten in place.
    auto compact = [&] {
        std::uint32_t next = 0;
        for (std::uint32_t t = 1; t <= time_limit; ++t) {
            const std::uint32_t line = line_at[t];
            if (last_time[line] != t)
                continue;
            ++next;
            last_time[line] = next;
            line_at[next] = line;
        }
        now = next;
        std::fill(live_bits.begin(), live_bits.end(), 0);
        for (std::uint32_t t = 1; t <= now; ++t)
            live_bits[t / 64] |= std::uint64_t{1} << (t % 64);
        std::fill(fenwick.begin(), fenwick.end(), 0);
        top = now / 64;
        for (std::uint32_t b = 0; b < top; ++b)
            add_live(b, static_cast<std::uint32_t>(
                            std::popcount(live_bits[b])));
    };

    std::size_t i = 0;
    for (const FetchRun &run : stream.runs()) {
        const std::uint32_t end = run.first_line + run.line_count;
        for (std::uint32_t line = run.first_line; line < end; ++line) {
            // Compact before reading the line's time: compaction
            // renumbers it, and must see it still live.
            if (now == time_limit)
                compact();
            const std::uint32_t prev = last_time[line];
            if (prev == 0) {
                ++live;
                table[i++] = static_cast<std::uint8_t>(kReuseColdBucket);
            } else {
                const std::uint32_t block = prev / 64;
                const std::uint64_t bit = std::uint64_t{1} << (prev % 64);
                const auto up_to_prev = static_cast<std::uint32_t>(
                    live_below(block) +
                    std::popcount(live_bits[block] & (bit | (bit - 1))));
                table[i++] = reuseEntry(live - up_to_prev, shadow_lines);
                live_bits[block] &= ~bit;
                if (block < top)
                    add_live(block, ~std::uint32_t{0});
            }
            ++now;
            if (now / 64 != top) { // the clock leaves the top block
                add_live(top, static_cast<std::uint32_t>(
                                  std::popcount(live_bits[top])));
                top = now / 64;
            }
            live_bits[top] |= std::uint64_t{1} << (now % 64);
            last_time[line] = now;
            line_at[now] = line;
        }
    }
    return table;
}

} // namespace topo
