#include "topo/resilience/durable_io.hh"

#include <cerrno>
#include <cstdio>
#include <cstring>

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include "topo/obs/metrics.hh"
#include "topo/resilience/fault.hh"
#include "topo/util/error.hh"

namespace topo
{

namespace
{

std::string
errnoText()
{
    return std::strerror(errno);
}

} // namespace

void
Fd::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

Fd
openAppend(const std::string &path)
{
    const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND,
                          0644);
    if (fd < 0)
        fail("cannot open '" + path + "' for append: " + errnoText());
    return Fd(fd);
}

Fd
openRead(const std::string &path)
{
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        fail("cannot open '" + path + "' for read: " + errnoText());
    return Fd(fd);
}

void
writeAll(const Fd &fd, const char *data, std::size_t n,
         const char *site)
{
    faultMaybeThrowIo(site);
    const std::size_t allowed = faultMaybeShortenWrite(site, n);
    std::size_t written = 0;
    while (written < allowed) {
        const ssize_t rc =
            ::write(fd.get(), data + written, allowed - written);
        if (rc < 0) {
            if (errno == EINTR)
                continue;
            failCorrupt("write failed: " + errnoText(), site);
        }
        written += static_cast<std::size_t>(rc);
    }
    if (allowed < n)
        failCorrupt("injected torn write", site);
}

void
fsyncFd(const Fd &fd, const char *site)
{
    faultMaybeThrowIo(site);
    MetricsRegistry::global().counter("store.fsyncs").add();
    if (::fsync(fd.get()) != 0)
        failCorrupt("fsync failed: " + errnoText(), site);
}

void
fsyncDir(const std::string &dir, const char *site)
{
    Fd fd(::open(dir.c_str(), O_RDONLY | O_DIRECTORY));
    if (!fd.valid())
        fail("cannot open directory '" + dir + "' for fsync: " + errnoText());
    MetricsRegistry::global().counter("store.dir_fsyncs").add();
    if (::fsync(fd.get()) != 0)
        failCorrupt("directory fsync failed: " + errnoText(), site);
}

void
truncateFd(const Fd &fd, std::uint64_t size, const char *site)
{
    faultMaybeThrowIo(site);
    if (::ftruncate(fd.get(), static_cast<off_t>(size)) != 0)
        failCorrupt("truncate failed: " + errnoText(), site);
    fsyncFd(fd, site);
}

std::string
readFileBytes(const std::string &path, const char *site)
{
    faultMaybeThrowIo(site);
    Fd fd = openRead(path);
    std::string bytes;
    char buf[1 << 16];
    for (;;) {
        const ssize_t rc = ::read(fd.get(), buf, sizeof(buf));
        if (rc < 0) {
            if (errno == EINTR)
                continue;
            failCorrupt("read failed: " + errnoText(), site);
        }
        if (rc == 0)
            break;
        bytes.append(buf, static_cast<std::size_t>(rc));
    }
    const std::size_t kept = faultMaybeShortenRead(site, bytes.size());
    if (kept < bytes.size())
        bytes.resize(kept);
    if (!bytes.empty())
        faultMaybeCorrupt(site, bytes.data(), bytes.size());
    return bytes;
}

void
atomicReplace(const std::string &path, const std::string &bytes,
              const char *site)
{
    const std::string tmp = path + ".tmp";
    {
        Fd fd(::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644));
        if (!fd.valid())
            fail("cannot open '" + tmp + "': " + errnoText());
        writeAll(fd, bytes.data(), bytes.size(), site);
        fsyncFd(fd, site);
    }
    faultMaybeCrash((std::string(site) + ".pre_rename").c_str());
    if (std::rename(tmp.c_str(), path.c_str()) != 0)
        fail("cannot rename '" + tmp + "' to '" + path + "': " + errnoText());
    faultMaybeCrash((std::string(site) + ".post_rename").c_str());
    fsyncDir(parentDir(path), site);
}

std::string
parentDir(const std::string &path)
{
    const std::size_t slash = path.find_last_of('/');
    if (slash == std::string::npos)
        return ".";
    if (slash == 0)
        return "/";
    return path.substr(0, slash);
}

} // namespace topo
