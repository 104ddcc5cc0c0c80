#include "topo/resilience/framing.hh"

#include <bit>

#include "topo/resilience/crc32.hh"
#include "topo/util/error.hh"

namespace topo
{

void
putU64(std::string &out, std::uint64_t value)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<char>((value >> (8 * i)) & 0xFF));
}

void
putU32(std::string &out, std::uint32_t value)
{
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<char>((value >> (8 * i)) & 0xFF));
}

void
putF64(std::string &out, double value)
{
    putU64(out, std::bit_cast<std::uint64_t>(value));
}

void
putString(std::string &out, const std::string &text)
{
    putU64(out, text.size());
    out += text;
}

void
Reader::need(std::size_t n) const
{
    requireData(n <= remaining(), "truncated payload", context_);
}

std::uint64_t
Reader::u64()
{
    need(8);
    std::uint64_t value = 0;
    for (int i = 0; i < 8; ++i) {
        value |= static_cast<std::uint64_t>(
                     static_cast<unsigned char>(bytes_[pos_ + i]))
                 << (8 * i);
    }
    pos_ += 8;
    return value;
}

std::uint32_t
Reader::u32()
{
    need(4);
    std::uint32_t value = 0;
    for (int i = 0; i < 4; ++i) {
        value |= static_cast<std::uint32_t>(
                     static_cast<unsigned char>(bytes_[pos_ + i]))
                 << (8 * i);
    }
    pos_ += 4;
    return value;
}

double
Reader::f64()
{
    return std::bit_cast<double>(u64());
}

std::uint8_t
Reader::u8()
{
    need(1);
    return static_cast<std::uint8_t>(bytes_[pos_++]);
}

std::string
Reader::str()
{
    const std::uint64_t len = u64();
    requireData(len <= kMaxFieldLen, "string length implausible",
                context_);
    need(static_cast<std::size_t>(len));
    std::string text(bytes_.substr(pos_, static_cast<std::size_t>(len)));
    pos_ += static_cast<std::size_t>(len);
    return text;
}

void
Reader::expectEnd() const
{
    requireData(pos_ == bytes_.size(), "trailing bytes", context_);
}

std::string
frameFile(const char magic[4], const std::string &payload)
{
    std::string file;
    file.reserve(payload.size() + 16);
    file.append(magic, 4);
    putU32(file, crc32(payload));
    putU64(file, payload.size());
    file += payload;
    return file;
}

std::string
unframeFile(const char magic[4], std::string_view bytes,
            const std::string &context)
{
    requireData(bytes.size() >= 16, "file too short", context);
    requireData(bytes.substr(0, 4) == std::string_view(magic, 4),
                "bad magic", context);
    Reader head(bytes.substr(4, 12), context);
    const std::uint32_t crc = head.u32();
    requireData(head.u64() == bytes.size() - 16, "size mismatch",
                context);
    std::string payload(bytes.substr(16));
    requireData(crc32(payload) == crc, "CRC mismatch", context);
    return payload;
}

} // namespace topo
