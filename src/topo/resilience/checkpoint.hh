/**
 * @file
 * Checkpoint/resume state for long cache-simulation runs.
 *
 * A checkpoint captures exactly the state the replay loop carries
 * across one fetch: the cursor into the (deterministically re-derived)
 * fetch stream, the miss counters, and the raw cache frame words.
 * Everything upstream of the loop — program, layout, expanded stream —
 * is a pure function of the tool's inputs, so it is re-derived on
 * resume and guarded by a fingerprint instead of being serialised;
 * see DESIGN.md ("Why checkpoint state is confined to simulator +
 * cursor").
 *
 * On-disk layout (file magic "TOPK"; the framing is framing.hh's):
 *
 *   magic "TOPK"
 *   u32le crc32(payload)
 *   u64le payload size
 *   payload: u64le version=1, fingerprint, cursor, misses,
 *            cache word count + words, attribution count + words
 *
 * Writes go to "<path>.tmp", fsync, rename over the target, then
 * fsync the parent directory (durable_io::atomicReplace), so a crash
 * mid-checkpoint leaves the previous checkpoint intact and a
 * completed save cannot be undone by losing the rename; a torn write
 * is caught by the CRC on load and reported as corrupt input.
 */

#ifndef TOPO_RESILIENCE_CHECKPOINT_HH
#define TOPO_RESILIENCE_CHECKPOINT_HH

#include <cstdint>
#include <string>
#include <vector>

namespace topo
{

/** Replay-loop state captured between two fetches. */
struct SimCheckpoint
{
    /** Input fingerprint; resume refuses a mismatched run. */
    std::uint64_t fingerprint = 0;
    /** Fetch-stream references already processed. */
    std::uint64_t cursor = 0;
    /** Misses among the processed references. */
    std::uint64_t misses = 0;
    /** Raw cache frame/tag words (geometry-specific, opaque here). */
    std::vector<std::uint64_t> cache_words;
    /** Per-procedure miss attribution; empty unless attributing. */
    std::vector<std::uint64_t> misses_by_proc;
};

/**
 * Write a checkpoint atomically (tmp file + rename). Throws a
 * user-error TopoError when the path is unwritable.
 */
void saveCheckpoint(const std::string &path, const SimCheckpoint &ckpt);

/**
 * Load and verify a checkpoint. Throws a corrupt-input TopoError on
 * bad magic, truncation, or CRC mismatch; a user-error on an
 * unopenable path.
 */
SimCheckpoint loadCheckpoint(const std::string &path);

/**
 * Mix one value into a running input fingerprint (SplitMix64 step).
 * Start from 0 and fold in every quantity that determines the replay:
 * cache geometry, layout addresses, stream length, attribution flag.
 */
std::uint64_t fingerprintMix(std::uint64_t acc, std::uint64_t value);

} // namespace topo

#endif // TOPO_RESILIENCE_CHECKPOINT_HH
