#include "lock_table.hh"

#include "common/logging.hh"

namespace pmemspec::cpu
{

LockTable::LockTable(sim::EventQueue &eq, StatGroup *parent,
                     Tick acquire_latency, Tick release_latency)
    : sim::SimObject("locks", eq, parent),
      acquireLatency(acquire_latency),
      releaseLatency(release_latency)
{
    stats().addCounter("acquires", &acquires, "lock acquisitions");
    stats().addCounter("contendedAcquires", &contendedAcquires,
                       "acquisitions that had to wait");
}

void
LockTable::acquire(unsigned lock_id, CoreId core,
                   InplaceFn<void()> on_acquired)
{
    LockState &ls = locks[lock_id];
    if (ls.locked) {
        ++contendedAcquires;
        ls.waiters.push_back(Waiter{core, std::move(on_acquired)});
        return;
    }
    ls.locked = true;
    ls.owner = core;
    ++acquires;
    schedule(After{acquireLatency}, std::move(on_acquired));
}

void
LockTable::release(unsigned lock_id, CoreId core)
{
    auto it = locks.find(lock_id);
    panic_if(it == locks.end() || !it->second.locked,
             "release of unheld lock %u", lock_id);
    LockState &ls = it->second;
    panic_if(ls.owner != core, "lock %u released by core %u, held by %u",
             lock_id, core, ls.owner);
    if (ls.waiters.empty()) {
        ls.locked = false;
        return;
    }
    // Ownership transfers directly to the next waiter so the lock
    // never appears free mid-handoff; the handoff costs the release
    // latency before the grant fires.
    Waiter w = std::move(ls.waiters.front());
    ls.waiters.pop_front();
    ls.owner = w.core;
    ++acquires;
    schedule(After{releaseLatency + acquireLatency}, std::move(w.cb));
}

bool
LockTable::cancelWait(unsigned lock_id, CoreId core)
{
    auto it = locks.find(lock_id);
    if (it == locks.end())
        return false;
    auto &waiters = it->second.waiters;
    for (auto wit = waiters.begin(); wit != waiters.end(); ++wit) {
        if (wit->core == core) {
            waiters.erase(wit);
            return true;
        }
    }
    return false;
}

bool
LockTable::held(unsigned lock_id) const
{
    auto it = locks.find(lock_id);
    return it != locks.end() && it->second.locked;
}

CoreId
LockTable::holder(unsigned lock_id) const
{
    auto it = locks.find(lock_id);
    panic_if(it == locks.end() || !it->second.locked,
             "holder() of unheld lock %u", lock_id);
    return it->second.owner;
}

} // namespace pmemspec::cpu
