/**
 * @file
 * A fixed-capacity FIFO ring for the timing path's bounded queues: a
 * core's store queue, a persist buffer's pending entries and a
 * persist path's in-flight flits. Each owner already refuses work
 * while its queue is full(), so the capacity is a hard bound: one
 * allocation at construction, index masking instead of std::deque's
 * block arithmetic, and a push past capacity panics.
 */

#ifndef PMEMSPEC_COMMON_FIFO_RING_HH
#define PMEMSPEC_COMMON_FIFO_RING_HH

#include <cstddef>
#include <memory>
#include <utility>

#include "common/logging.hh"

namespace pmemspec
{

template <typename T>
class FifoRing
{
  public:
    explicit FifoRing(std::size_t capacity)
        : slots(std::make_unique<T[]>(roundUpPow2(capacity))),
          mask(roundUpPow2(capacity) - 1), cap(capacity)
    {
        fatal_if(capacity == 0, "FIFO ring capacity must be >= 1");
    }

    std::size_t size() const { return count; }
    bool empty() const { return count == 0; }
    bool full() const { return count >= cap; }

    void
    push_back(T v)
    {
        panic_if(count >= cap, "FIFO ring overflow (capacity %zu); "
                               "callers must check full()", cap);
        slots[(head + count) & mask] = std::move(v);
        ++count;
    }

    T &front() { return slots[head]; }
    const T &front() const { return slots[head]; }

    void
    pop_front()
    {
        head = (head + 1) & mask;
        --count;
    }

    /** The i-th oldest entry, i < size(). */
    T &operator[](std::size_t i) { return slots[(head + i) & mask]; }

  private:
    static std::size_t
    roundUpPow2(std::size_t n)
    {
        std::size_t p = 1;
        while (p < n)
            p <<= 1;
        return p;
    }

    std::unique_ptr<T[]> slots;
    std::size_t mask;
    std::size_t cap;
    std::size_t head = 0;
    std::size_t count = 0;
};

} // namespace pmemspec

#endif // PMEMSPEC_COMMON_FIFO_RING_HH
