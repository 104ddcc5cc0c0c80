/**
 * @file
 * Little-endian binary framing shared by simulator checkpoints
 * (checkpoint.hh) and the profile store's meta and snapshot files
 * (store_codec.hh).
 *
 * A framed file is
 *
 *   magic (4 bytes)  u32le crc32(payload)  u64le payload size  payload
 *
 * and payloads are built from the put* helpers and read back with a
 * Reader, which throws a corrupt-input TopoError instead of reading
 * past the end.
 */

#ifndef TOPO_RESILIENCE_FRAMING_HH
#define TOPO_RESILIENCE_FRAMING_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

namespace topo
{

/** Ceiling on any length field read before an allocation (1 GiB). */
constexpr std::uint64_t kMaxFieldLen = 1ULL << 30;

/** Append a little-endian u64. */
void putU64(std::string &out, std::uint64_t value);
/** Append a little-endian u32. */
void putU32(std::string &out, std::uint32_t value);
/** Append a double as its IEEE-754 bit pattern. */
void putF64(std::string &out, double value);
/** Append a length-prefixed string. */
void putString(std::string &out, const std::string &text);

/**
 * Cursor over a serialized payload it does not own; throws
 * corrupt-input, naming @p context, on a read past the end.
 */
class Reader
{
  public:
    Reader(std::string_view bytes, std::string context)
        : bytes_(bytes), context_(std::move(context))
    {}

    std::uint64_t u64();
    std::uint32_t u32();
    double f64();
    std::uint8_t u8();
    std::string str();
    /** Bytes not yet consumed. */
    std::size_t remaining() const { return bytes_.size() - pos_; }
    /** Require the payload to be fully consumed. */
    void expectEnd() const;

  private:
    std::string_view bytes_;
    std::string context_;
    std::size_t pos_ = 0;

    void need(std::size_t n) const;
};

/** Frame a payload with magic + crc + size. */
std::string frameFile(const char magic[4], const std::string &payload);
/**
 * Unframe a file image; throws a corrupt-input TopoError on bad
 * magic, truncation, size mismatch, or CRC mismatch.
 */
std::string unframeFile(const char magic[4], std::string_view bytes,
                        const std::string &context);

} // namespace topo

#endif // TOPO_RESILIENCE_FRAMING_HH
