/**
 * @file
 * Simulated-time mutexes.
 *
 * The workloads are data-race free (Section 5.2.2): every conflicting
 * PM access is protected by a lock. The trace generator records which
 * lock a thread took; at replay time the LockTable enforces mutual
 * exclusion in *simulated* time, which both serialises the replay
 * correctly and establishes the happens-before order that the
 * persistency hardware models consume (spec-IDs, persist-buffer
 * watermarks).
 */

#ifndef PMEMSPEC_CPU_LOCK_TABLE_HH
#define PMEMSPEC_CPU_LOCK_TABLE_HH

#include <deque>
#include <map>

#include "common/inplace_fn.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "sim/sim_object.hh"

namespace pmemspec::cpu
{

/** FIFO-fair simulated mutexes, keyed by an integer lock id. */
class LockTable : public sim::SimObject
{
  public:
    LockTable(sim::EventQueue &eq, StatGroup *parent,
              Tick acquire_latency = nsToTicks(20),
              Tick release_latency = nsToTicks(10));

    /**
     * Request the lock for a core. on_acquired runs (after the
     * acquire latency) as soon as the lock is granted -- immediately
     * if free, or after the current holder and queued waiters.
     */
    void acquire(unsigned lock_id, CoreId core,
                 InplaceFn<void()> on_acquired);

    /** Release a held lock; the next waiter (if any) is granted. */
    void release(unsigned lock_id, CoreId core);

    /** Remove a core from a lock's wait queue (FASE abort while
     *  blocked). @return true if the core was queued. */
    bool cancelWait(unsigned lock_id, CoreId core);

    /** @return true if the lock is currently held. */
    bool held(unsigned lock_id) const;

    /** Holder of a lock; only valid when held(). */
    CoreId holder(unsigned lock_id) const;

    Counter acquires;
    Counter contendedAcquires;

  private:
    struct Waiter
    {
        CoreId core;
        InplaceFn<void()> cb;
    };

    struct LockState
    {
        bool locked = false;
        CoreId owner = 0;
        std::deque<Waiter> waiters;
    };

    Tick acquireLatency;
    Tick releaseLatency;
    std::map<unsigned, LockState> locks;
};

} // namespace pmemspec::cpu

#endif // PMEMSPEC_CPU_LOCK_TABLE_HH
