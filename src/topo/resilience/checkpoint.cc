#include "topo/resilience/checkpoint.hh"

#include <fstream>

#include "topo/obs/log.hh"
#include "topo/resilience/durable_io.hh"
#include "topo/resilience/framing.hh"
#include "topo/util/error.hh"

namespace topo
{

namespace
{

constexpr char kMagic[4] = {'T', 'O', 'P', 'K'};
constexpr std::uint64_t kVersion = 1;

/** Frame-word ceiling: 1 GiB of tags, far above any simulated cache. */
constexpr std::uint64_t kMaxWords = 1ULL << 27;

void
putWords(std::string &out, const std::vector<std::uint64_t> &words)
{
    putU64(out, words.size());
    for (std::uint64_t w : words)
        putU64(out, w);
}

std::vector<std::uint64_t>
getWords(Reader &in, const std::string &path)
{
    const std::uint64_t count = in.u64();
    requireData(count <= kMaxWords, "checkpoint word count implausible",
                path);
    requireData(count * 8 <= in.remaining(), "truncated checkpoint",
                path);
    std::vector<std::uint64_t> words(count);
    for (std::uint64_t &word : words)
        word = in.u64();
    return words;
}

} // namespace

void
saveCheckpoint(const std::string &path, const SimCheckpoint &ckpt)
{
    std::string payload;
    payload.reserve(48 + 8 * (ckpt.cache_words.size() +
                              ckpt.misses_by_proc.size()));
    putU64(payload, kVersion);
    putU64(payload, ckpt.fingerprint);
    putU64(payload, ckpt.cursor);
    putU64(payload, ckpt.misses);
    putWords(payload, ckpt.cache_words);
    putWords(payload, ckpt.misses_by_proc);

    // tmp write + fsync + rename + parent-dir fsync: without the
    // directory sync a crash after the rename could still resurface
    // the previous checkpoint (the rename itself was not durable).
    atomicReplace(path, frameFile(kMagic, payload), "checkpoint.save");
    logDebug("checkpoint", "saved",
             {{"file", path}, {"cursor", ckpt.cursor},
              {"misses", ckpt.misses}});
}

SimCheckpoint
loadCheckpoint(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is.good())
        fail("loadCheckpoint: cannot open '" + path + "'");
    const std::string file((std::istreambuf_iterator<char>(is)),
                           std::istreambuf_iterator<char>());
    const std::string payload = unframeFile(kMagic, file, path);

    Reader in(payload, path);
    SimCheckpoint ckpt;
    const std::uint64_t version = in.u64();
    if (version != kVersion)
        failCorrupt("unsupported checkpoint version " +
                        std::to_string(version),
                    path);
    ckpt.fingerprint = in.u64();
    ckpt.cursor = in.u64();
    ckpt.misses = in.u64();
    ckpt.cache_words = getWords(in, path);
    ckpt.misses_by_proc = getWords(in, path);
    in.expectEnd();
    return ckpt;
}

std::uint64_t
fingerprintMix(std::uint64_t acc, std::uint64_t value)
{
    std::uint64_t z = acc + value + 0x9E3779B97F4A7C15ULL;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

} // namespace topo
