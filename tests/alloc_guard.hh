/**
 * @file
 * Global allocation counter for the zero-allocation guard tests.
 *
 * Include it from exactly one translation unit of a test binary: it
 * replaces the global operator new and delete with malloc/free
 * wrappers that count every allocation in g_heap_allocations. The
 * nothrow new is replaced too, so allocations through it (libstdc++'s
 * stable_sort takes its temporary buffer that way) are counted, and
 * so a sanitizer's own nothrow new never hands out memory that these
 * deletes free.
 */

#ifndef UAVF1_TESTS_ALLOC_GUARD_HH
#define UAVF1_TESTS_ALLOC_GUARD_HH

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

/** Allocations through any replaced operator new so far. */
std::atomic<std::size_t> g_heap_allocations{0};

void *
operator new(std::size_t size)
{
    g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size))
        return p;
    throw std::bad_alloc();
}

void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(size);
}

// GCC 12 flags free() on a pointer from operator new once the delete
// is inlined; these operators pair new with malloc, so free matches.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

#pragma GCC diagnostic pop

#endif // UAVF1_TESTS_ALLOC_GUARD_HH
