/**
 * @file
 * The decoupled persist-path of PMEM-Spec (Section 4.2).
 *
 * One FIFO per core connects the store queue directly to the PM
 * controller, bypassing the cache hierarchy. Entries leave the store
 * queue at commit and arrive at the PMC in commit order after the
 * configured path latency (20ns by default; the paths share a ring
 * bus, which the speculation window accounts for). Because the PMC is
 * inside the ADR persistent domain, a store is durable the moment it
 * is accepted there; spec-barrier therefore only waits for this FIFO
 * to drain and be accepted. When the PMC write queue is full, the
 * head waits for the PMC to admit it, with no event pending.
 */

#ifndef PMEMSPEC_MEM_PERSIST_PATH_HH
#define PMEMSPEC_MEM_PERSIST_PATH_HH

#include <optional>

#include "common/fifo_ring.hh"
#include "common/inplace_fn.hh"
#include "common/stats.hh"
#include "common/trace.hh"
#include "common/types.hh"
#include "common/waiter_list.hh"
#include "sim/sim_object.hh"

namespace pmemspec::mem
{

/**
 * Upper bound on the persists of one core that can be *simultaneously*
 * inside the speculation window: entries leave the store queue at
 * commit and arrive at the PMC `path_latency` later, so at most one
 * window's worth of path slots can hold not-yet-accepted persists.
 * The crash-state reorder explorer uses this as the physical clamp
 * on its window depth -- exploring reorderings deeper than the
 * hardware window would check states no real outage can produce.
 */
constexpr std::size_t
persistsInWindow(Tick window, Tick path_latency)
{
    return path_latency == 0
               ? std::size_t{64}
               : static_cast<std::size_t>(window / path_latency) + 1;
}

/** Per-core FIFO from the store queue to the PM controller. */
class PersistPath : public sim::SimObject
{
  public:
    /**
     * Delivery hook into the PM controller: attempts to hand one
     * persist over. Returns false when the PMC write queue is full;
     * the PMC then keeps `on_admit` and runs it when the persist may
     * be offered again, so the head keeps its place.
     */
    using DeliverFn = InplaceFn<bool(CoreId, Addr,
                                     std::optional<SpecId>,
                                     Waiter &on_admit)>;

    PersistPath(sim::EventQueue &eq, StatGroup *parent, CoreId core,
                Tick latency, unsigned capacity, DeliverFn deliver);

    /** @return true if the FIFO cannot accept another entry. */
    bool full() const { return fifo.full(); }

    /**
     * Push a committed PM store onto the path. Must not be called
     * while full(); the store queue applies backpressure instead.
     */
    void send(Addr block_addr, std::optional<SpecId> spec_id);

    /** @return true when nothing is in flight (spec-barrier test). */
    bool empty() const { return fifo.empty(); }

    /** In-flight persists currently buffered in the path (metrics). */
    std::size_t occupancy() const { return fifo.size(); }

    /** Invoke cb once the path next becomes empty (immediately if it
     *  already is). Used by spec-barrier. */
    void
    notifyWhenEmpty(Waiter cb)
    {
        emptyWaiters.runOrAdd(empty(), std::move(cb));
    }

    /** Invoke cb once the path next has a free slot. Used by the
     *  store queue when it hit backpressure. */
    void
    notifyWhenNotFull(Waiter cb)
    {
        spaceWaiters.runOrAdd(!full(), std::move(cb));
    }

    Tick latency() const { return pathLatency; }

    /** Attach the machine's event recorder; `unit` is the path lane. */
    void setTraceManager(trace::Manager *mgr, std::uint16_t unit = 0)
    {
        traceMgr = mgr;
        traceUnit = unit;
    }

    Counter sends;
    Counter deliveries;
    /** Waits for PMC admission, one per refusal (stat "pathRetries",
     *  shared naming with PersistBuffer). */
    Counter pathRetries;
    Accumulator occupancyStat;
    /** FIFO occupancy distribution, sampled at each send (fig12). */
    Histogram occupancyHist;

  private:
    struct Flit
    {
        Addr addr;
        std::optional<SpecId> specId;
        Tick readyAt; ///< earliest tick it may reach the PMC
    };

    /** Try to deliver the FIFO head; reschedules itself as needed. */
    void pump();
    void schedulePump(Tick at);

    void wakeWaiters();

    CoreId coreId;
    Tick pathLatency;
    DeliverFn deliver;
    FifoRing<Flit> fifo;
    Tick lastArrival = 0;
    /** A pump event is pending, or the head waits for admission:
     *  either way the path has one pump chain. */
    bool pumpPending = false;
    WaiterList<> emptyWaiters;
    WaiterList<> spaceWaiters;

    trace::Manager *traceMgr = nullptr;
    std::uint16_t traceUnit = 0;
};

} // namespace pmemspec::mem

#endif // PMEMSPEC_MEM_PERSIST_PATH_HH
