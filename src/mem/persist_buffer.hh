/**
 * @file
 * Per-core persist buffers for the HOPS and DPO baselines
 * (Figure 1a/1b, Sections 2.2 and 3.1).
 *
 * Both baselines place a buffer beside the L1 that captures every PM
 * store; dirty LLC evictions are dropped because the buffer is the
 * agent of persistence. They differ in drain policy:
 *
 *  - HOPS (buffered epoch persistency): ofence closes an epoch without
 *    stalling; entries of the oldest unpersisted epoch drain with up
 *    to drainWidth persists in flight; a later epoch may not start
 *    draining before every earlier epoch is fully persisted. dfence
 *    stalls the core until the buffer is empty.
 *
 *  - DPO (buffered strict persistency): entries drain strictly in
 *    order and "only a single flush to the persistent memory
 *    controller" is allowed machine-wide at once, modelled by a global
 *    drain token shared by all buffers. The token serialises flush
 *    *initiation* (one bus injection slot at a time); the flit then
 *    flies to the PMC pipelined behind the next one.
 *
 * Inter-thread persist dependencies (discovered through coherence /
 * sticky-M in the real designs) are conveyed here through lock
 * watermarks: when a thread releases a lock, the acquirer's buffer
 * records a dependency on the releaser's unpersisted entries and will
 * not drain past it until they are durable.
 */

#ifndef PMEMSPEC_MEM_PERSIST_BUFFER_HH
#define PMEMSPEC_MEM_PERSIST_BUFFER_HH

#include <cstdint>
#include <limits>
#include <vector>

#include "common/fifo_ring.hh"
#include "common/inplace_fn.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "common/waiter_list.hh"
#include "sim/sim_object.hh"

namespace pmemspec::mem
{

class PersistBuffer;

/** Machine-wide single-flush serialisation used by DPO. */
struct GlobalDrainToken
{
    bool busy = false;
    /** Buffers that found the token busy, in arrival order. */
    WaiterList<PersistBuffer *> waiters;

    bool
    tryAcquire()
    {
        if (busy)
            return false;
        busy = true;
        return true;
    }

    /** Free the token; every waiting buffer retries its drain. */
    void release();
};

/** A persist dependency on another buffer's progress. */
struct PersistDep
{
    const PersistBuffer *other;
    std::uint64_t seq; ///< satisfied once other persisted past seq
};

/** One per-core persist buffer. */
class PersistBuffer : public sim::SimObject
{
  public:
    /** Hands one persist to the PMC; false on backpressure, when the
     *  PMC keeps `on_admit` and runs it once the persist may be
     *  offered again. */
    using DeliverFn = InplaceFn<bool(CoreId, Addr, Waiter &on_admit)>;
    /** Bloom-filter maintenance hooks (HOPS keeps the PMC filter in
     *  sync with buffer contents). */
    using FilterHook = InplaceFn<void(Addr)>;

    PersistBuffer(sim::EventQueue &eq, StatGroup *parent, CoreId core,
                  Tick drain_latency, unsigned capacity,
                  unsigned drain_width, bool strict_fifo,
                  GlobalDrainToken *global_token, DeliverFn deliver);

    void setFilterHooks(FilterHook on_insert, FilterHook on_remove);

    /** Hook invoked on every persist completion; the machine uses it
     *  to re-evaluate cross-buffer dependencies. */
    void setProgressHook(InplaceFn<void()> cb);

    /** @return true if the buffer cannot take another store. */
    bool full() const;

    /**
     * Capture a committed PM store. Coalesces with a pending entry to
     * the same block in the same epoch. Must not be called while
     * full().
     */
    void append(Addr block_addr);

    /** Close the current epoch (HOPS ofence). Never stalls. */
    void ofence();

    /** @return true when no entry is pending or in flight. */
    bool empty() const { return pending.empty() && inFlight.empty(); }

    /** Invoke cb when the buffer next drains empty (dfence). */
    void
    notifyWhenEmpty(Waiter cb)
    {
        emptyWaiters.runOrAdd(empty(), std::move(cb));
    }

    /** Invoke cb when space is available (store-queue backpressure). */
    void
    notifyWhenNotFull(Waiter cb)
    {
        spaceWaiters.runOrAdd(!full(), std::move(cb));
    }

    /** Sequence number that the next appended entry will get. */
    std::uint64_t nextSeq() const { return seqCounter; }

    /** Smallest sequence number not yet durable (max if none). */
    std::uint64_t oldestUnpersistedSeq() const;

    /** Record that this buffer may not drain until `other` has
     *  persisted everything up to `seq` (lock-handoff dependency). */
    void addDependency(const PersistBuffer *other, std::uint64_t seq);

    /** Re-evaluate drain eligibility (dependency may have cleared). */
    void pump();

    Counter appends;
    Counter coalesces;
    Counter persistsDone;
    Counter ofences;
    Counter depStalls;
    /** Waits for PMC admission, one per refusal (stat "pathRetries",
     *  shared naming with PersistPath). */
    Counter pathRetries;
    Accumulator occupancyStat;

  private:
    struct Entry
    {
        Addr addr;
        std::uint64_t epoch;
        std::uint64_t seq;
    };

    bool depsSatisfied();
    /** Offer in-flight entry `seq` to the PMC. */
    void attemptDeliver(Addr addr, std::uint64_t seq);
    void finishOne(Addr addr, std::uint64_t seq);

    CoreId coreId;
    Tick drainLatency;
    unsigned capacity_;
    unsigned drainWidth;
    bool strictFifo;
    GlobalDrainToken *globalToken;
    DeliverFn deliver;
    FilterHook filterInsert;
    FilterHook filterRemove;
    InplaceFn<void()> progressHook;

    FifoRing<Entry> pending;
    std::vector<Entry> inFlight;
    std::uint64_t curEpoch = 0;
    std::uint64_t seqCounter = 0;
    std::vector<PersistDep> deps;
    WaiterList<> emptyWaiters;
    WaiterList<> spaceWaiters;
};

} // namespace pmemspec::mem

#endif // PMEMSPEC_MEM_PERSIST_BUFFER_HH
