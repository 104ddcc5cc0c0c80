/**
 * @file
 * Counting replacements of the global allocation functions, for the
 * tests that bound allocations on a hot path: g_allocs counts every
 * operator new. Replacement functions must be defined once per
 * program, so include this header from exactly one source file of a
 * test executable.
 */

#ifndef TOPO_TESTS_ALLOC_COUNTER_HH
#define TOPO_TESTS_ALLOC_COUNTER_HH

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace
{

/** Global allocation counter. */
std::atomic<std::uint64_t> g_allocs{0};

} // namespace

// The full replacement set (array and nothrow forms included) so every
// allocation and deallocation pairs up on malloc/free — a partial set
// trips ASan's alloc-dealloc-mismatch checker in the sanitized build.
void *
operator new(std::size_t size)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *ptr = std::malloc(size))
        return ptr;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    return operator new(size);
}

void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(size);
}

void *
operator new[](std::size_t size, const std::nothrow_t &tag) noexcept
{
    return operator new(size, tag);
}

void
operator delete(void *ptr) noexcept
{
    std::free(ptr);
}

void
operator delete[](void *ptr) noexcept
{
    std::free(ptr);
}

void
operator delete(void *ptr, std::size_t) noexcept
{
    std::free(ptr);
}

void
operator delete[](void *ptr, std::size_t) noexcept
{
    std::free(ptr);
}

void
operator delete(void *ptr, const std::nothrow_t &) noexcept
{
    std::free(ptr);
}

void
operator delete[](void *ptr, const std::nothrow_t &) noexcept
{
    std::free(ptr);
}

#endif // TOPO_TESTS_ALLOC_COUNTER_HH
