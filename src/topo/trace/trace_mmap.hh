/**
 * @file
 * Read-only file mapping for trace loads.
 *
 * File-path trace loads (loadBinaryTrace / loadAnyTrace) map the file
 * when MappedFile::tryMap succeeds and decode straight out of the
 * mapping: no read() copies and no per-chunk payload allocation. When
 * the file does not map (a pipe, a non-regular file, an mmap failure,
 * or a platform without mmap) they read it into memory instead. Both
 * sources feed the one decoder (decodeBinaryTrace), so decode
 * semantics, fault hooks, salvage, metrics, and error text do not
 * depend on which one a load got; a mapped load also ticks
 * trace.mmap_loads. DESIGN.md §10 has the details.
 */

#ifndef TOPO_TRACE_TRACE_MMAP_HH
#define TOPO_TRACE_TRACE_MMAP_HH

#include <cstddef>
#include <optional>
#include <string>

namespace topo
{

/** True when this platform can map files read-only. */
bool mmapSupported();

/**
 * RAII read-only file mapping. Obtain through tryMap(); an instance
 * always owns a valid (possibly empty) mapping.
 */
class MappedFile
{
  public:
    /** Map @p path read-only; std::nullopt on any failure. */
    static std::optional<MappedFile> tryMap(const std::string &path);

    MappedFile(MappedFile &&other) noexcept;
    MappedFile &operator=(MappedFile &&other) noexcept;
    MappedFile(const MappedFile &) = delete;
    MappedFile &operator=(const MappedFile &) = delete;
    ~MappedFile();

    /** First mapped byte (nullptr for an empty file). */
    const char *data() const { return data_; }

    /** Mapped length in bytes. */
    std::size_t size() const { return size_; }

  private:
    MappedFile(const char *data, std::size_t size)
        : data_(data), size_(size)
    {
    }

    const char *data_ = nullptr;
    std::size_t size_ = 0;
};

} // namespace topo

#endif // TOPO_TRACE_TRACE_MMAP_HH
