/**
 * @file
 * One-shot waiters of the timing path: WaiterList for one condition,
 * woken together (a persist path or buffer draining or freeing a
 * slot, a core's store queue draining, DPO's drain token coming
 * free); BlockWaiters for one per block (MSHRs, HOPS reads held until
 * their block leaves the persist buffers); and WaiterFifo for waiters
 * admitted one at a time as a resource frees a slot (the PM
 * controller's read and write queues). Waiters fire once, in arrival
 * order; one queued during a wake waits for the next. The vectors
 * keep their capacity across wakes, so waiting in steady state
 * allocates nothing.
 */

#ifndef PMEMSPEC_COMMON_WAITER_LIST_HH
#define PMEMSPEC_COMMON_WAITER_LIST_HH

#include <algorithm>
#include <utility>
#include <vector>

#include "common/inplace_fn.hh"
#include "common/logging.hh"
#include "common/types.hh"

namespace pmemspec
{

/** A one-shot continuation, the default waiter. */
using Waiter = InplaceFn<void()>;

template <typename T = Waiter>
class WaiterList
{
  public:
    void add(T w) { pending.push_back(std::move(w)); }

    /** Run `w` now if `ready`, else queue it for the next wake. */
    void
    runOrAdd(bool ready, T w)
    {
        if (ready)
            w();
        else
            add(std::move(w));
    }

    bool empty() const { return pending.empty(); }
    void clear() { pending.clear(); }

    /** Hand each queued waiter to `fire` and empty the list. */
    template <typename F>
    void
    wake(F &&fire)
    {
        if (pending.empty())
            return;
        panic_if(!firing.empty(), "waiter list woken by its own waiter");
        firing.swap(pending);
        for (T &w : firing)
            fire(w);
        firing.clear();
    }

    void
    wake()
    {
        wake([](T &w) { w(); });
    }

  private:
    std::vector<T> pending;
    std::vector<T> firing; ///< the batch being woken
};

template <typename W>
class BlockWaiters
{
  public:
    /** @return true if `w` is the block's first waiter. */
    bool
    add(Addr block, W w)
    {
        const bool first = std::none_of(
            waiting.begin(), waiting.end(),
            [block](const auto &e) { return e.first == block; });
        waiting.emplace_back(block, std::move(w));
        return first;
    }

    /** Hand the block's waiters to `fire`; false if it had none. */
    template <typename F>
    bool
    wake(Addr block, F &&fire)
    {
        panic_if(!firing.empty(), "block woken by its own waiter");
        std::size_t kept = 0;
        for (auto &e : waiting) {
            if (e.first == block)
                firing.push_back(std::move(e.second));
            else
                waiting[kept++] = std::move(e);
        }
        waiting.erase(waiting.begin() + kept, waiting.end());
        for (W &w : firing)
            fire(w);
        const bool any = !firing.empty();
        firing.clear();
        return any;
    }

  private:
    std::vector<std::pair<Addr, W>> waiting;
    std::vector<W> firing;
};

/** Waiters taken one at a time, oldest first. */
template <typename T>
class WaiterFifo
{
  public:
    void add(T w) { queue.push_back(std::move(w)); }

    bool empty() const { return head == queue.size(); }
    std::size_t size() const { return queue.size() - head; }

    /** Remove and return the oldest waiter. */
    T
    pop()
    {
        panic_if(empty(), "pop from an empty waiter FIFO");
        T w = std::move(queue[head++]);
        // Reuse the vector's storage: reset when drained, and slide
        // the live tail down once the consumed head dominates.
        if (head == queue.size()) {
            queue.clear();
            head = 0;
        } else if (head >= 32 && 2 * head >= queue.size()) {
            queue.erase(queue.begin(),
                        queue.begin() + static_cast<std::ptrdiff_t>(head));
            head = 0;
        }
        return w;
    }

  private:
    std::vector<T> queue;
    std::size_t head = 0; ///< index of the oldest waiter
};

} // namespace pmemspec

#endif // PMEMSPEC_COMMON_WAITER_LIST_HH
