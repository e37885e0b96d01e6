/**
 * @file
 * One-shot waiters woken together, the waiter lists of the timing
 * path: WaiterList for one condition (a persist path or buffer
 * draining or freeing a slot, a core's store queue draining, DPO's
 * drain token coming free) and BlockWaiters for one per block (MSHRs,
 * HOPS reads held until their block leaves the persist buffers).
 * Waiters fire once, in arrival order; one queued during a wake waits
 * for the next. The vectors keep their capacity across wakes, so
 * waiting in steady state allocates nothing.
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

} // namespace pmemspec

#endif // PMEMSPEC_COMMON_WAITER_LIST_HH
