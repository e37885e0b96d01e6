/**
 * @file
 * Heap-allocation counting for tests: replaces the global operator
 * new/delete of the test binary that includes it. Include it in
 * exactly one translation unit per test executable.
 *
 * Only allocations made while an AllocCounter is alive are counted;
 * gtest's own bookkeeping outside that scope is not.
 */

#ifndef PMEMSPEC_TESTS_ALLOC_COUNTER_HH
#define PMEMSPEC_TESTS_ALLOC_COUNTER_HH

#include <cstdint>
#include <cstdlib>
#include <new>

namespace alloc_counter_detail
{
bool counting = false;
std::uint64_t allocations = 0;
} // namespace alloc_counter_detail

// The replacements stay out of line: GCC would otherwise pair an
// inlined malloc() or free() with the other side's operator call and
// warn (-Wmismatched-new-delete).
[[gnu::noinline]] void *
operator new(std::size_t n)
{
    if (alloc_counter_detail::counting)
        ++alloc_counter_detail::allocations;
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

/** Counts the operator new calls made during its lifetime. */
class AllocCounter
{
  public:
    AllocCounter()
    {
        alloc_counter_detail::allocations = 0;
        alloc_counter_detail::counting = true;
    }
    ~AllocCounter() { alloc_counter_detail::counting = false; }

    AllocCounter(const AllocCounter &) = delete;
    AllocCounter &operator=(const AllocCounter &) = delete;

    std::uint64_t count() const
    {
        return alloc_counter_detail::allocations;
    }
};

#endif // PMEMSPEC_TESTS_ALLOC_COUNTER_HH
