#include "topo/util/sysinfo.hh"

#include <ctime>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace topo
{

std::uint64_t
peakRssKb()
{
#if defined(__unix__) || defined(__APPLE__)
    struct rusage usage;
    if (getrusage(RUSAGE_SELF, &usage) != 0)
        return 0;
#if defined(__APPLE__)
    // macOS reports ru_maxrss in bytes.
    return static_cast<std::uint64_t>(usage.ru_maxrss) / 1024;
#else
    return static_cast<std::uint64_t>(usage.ru_maxrss);
#endif
#else
    return 0;
#endif
}

namespace
{

std::string
formatUtc(const char *format)
{
    const std::time_t now = std::time(nullptr);
    std::tm tm_utc{};
#if defined(_WIN32)
    gmtime_s(&tm_utc, &now);
#else
    gmtime_r(&now, &tm_utc);
#endif
    char buffer[32];
    const std::size_t len =
        std::strftime(buffer, sizeof(buffer), format, &tm_utc);
    return std::string(buffer, len);
}

} // namespace

std::string
utcTimestamp()
{
    return formatUtc("%Y-%m-%dT%H:%M:%SZ");
}

} // namespace topo
