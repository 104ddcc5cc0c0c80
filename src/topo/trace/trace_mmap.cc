#include "topo/trace/trace_mmap.hh"

#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#define TOPO_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#define TOPO_HAVE_MMAP 0
#endif

namespace topo
{

bool
mmapSupported()
{
    return TOPO_HAVE_MMAP != 0;
}

std::optional<MappedFile>
MappedFile::tryMap(const std::string &path)
{
#if TOPO_HAVE_MMAP
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        return std::nullopt;
    struct stat st;
    if (::fstat(fd, &st) != 0 || !S_ISREG(st.st_mode)) {
        ::close(fd);
        return std::nullopt;
    }
    const std::size_t size = static_cast<std::size_t>(st.st_size);
    if (size == 0) {
        // mmap rejects zero-length maps; an empty file is a valid
        // (empty) mapping.
        ::close(fd);
        return MappedFile(nullptr, 0);
    }
    void *mapped =
        ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
    // The mapping holds its own reference; the descriptor can close
    // immediately either way.
    ::close(fd);
    if (mapped == MAP_FAILED)
        return std::nullopt;
    return MappedFile(static_cast<const char *>(mapped), size);
#else
    (void)path;
    return std::nullopt;
#endif
}

MappedFile::MappedFile(MappedFile &&other) noexcept
    : data_(std::exchange(other.data_, nullptr)),
      size_(std::exchange(other.size_, 0))
{
}

MappedFile &
MappedFile::operator=(MappedFile &&other) noexcept
{
    if (this != &other) {
        this->~MappedFile();
        data_ = std::exchange(other.data_, nullptr);
        size_ = std::exchange(other.size_, 0);
    }
    return *this;
}

MappedFile::~MappedFile()
{
#if TOPO_HAVE_MMAP
    if (data_ != nullptr)
        ::munmap(const_cast<char *>(data_), size_);
#endif
    data_ = nullptr;
    size_ = 0;
}

} // namespace topo
