/**
 * @file
 * The persistent-memory controller.
 *
 * The PMC owns the read/write queues (32/64 entries, Table 3), a
 * banked Optane-like device model (read 175ns, write 94ns), and the
 * design-specific persistence machinery:
 *
 *  - IntelX86: dirty LLC writebacks and CLWB flushes enter the write
 *    queue; ADR makes a write durable at acceptance.
 *  - HOPS/DPO: regular-path writebacks are dropped (the persist
 *    buffers are the persistence agents); HOPS additionally keeps a
 *    counting bloom filter of buffered addresses that every PM read
 *    must consult, delaying on (possibly false-positive) hits.
 *  - PMEM-Spec: regular-path writebacks are dropped but reported to
 *    the speculation buffer as WriteBack inputs; persists arriving on
 *    the decoupled paths enter the write queue and feed the Persist
 *    input; PM reads feed the Read input.
 *
 * A full queue is credit-style flow control, not polling. A write
 * (persist or writeback) refused on a full write queue joins one FIFO
 * of admission waiters; each retiring write admits waiters from its
 * head while a slot is free, and each admitted waiter offers its
 * write again, which is then accepted. A read finding the read queue
 * full waits in FIFO order for a finishing read to free its slot.
 */

#ifndef PMEMSPEC_MEM_PM_CONTROLLER_HH
#define PMEMSPEC_MEM_PM_CONTROLLER_HH

#include <optional>
#include <vector>

#include "common/bloom_filter.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "common/waiter_list.hh"
#include "mem/block_table.hh"
#include "mem/mem_config.hh"
#include "mem/speculation_buffer.hh"
#include "persistency/design.hh"
#include "sim/sim_object.hh"

namespace pmemspec::mem
{

/**
 * The Section 5.2.2 store-order predicate, shared by the timing
 * PMC's order check, the functional fault injector's mirror of it,
 * and the crash-state reorder explorer's ordering-edge construction:
 * given the highest speculation ID already recorded for a block
 * within the window, an arriving persist with a *lower* ID persisted
 * after a store that happens-before ordered later -- a WAW inversion
 * (missing-update hazard). Equal IDs are the same store re-observed
 * and are never a violation.
 */
constexpr bool
storeOrderViolated(SpecId recorded, SpecId arriving)
{
    return arriving < recorded;
}

/**
 * One tagged persist through the Section 5.2.2 order check: step
 * `table`'s spec-ID automaton for `block`; trace a violation and
 * report it to `spec`; give a newly tracked entry its lazy expiry
 * sweep on `eq`, `window` + 1 ticks on. The timing PMC and the fault
 * injector's modelled PMC both take this step, so the offline trace
 * checker's one model re-derives both. `mgr` is the owner's trace
 * manager member, read when each event is recorded; `unit` tags the
 * events.
 */
void stepStoreOrder(BlockTable &table, sim::EventQueue &eq,
                    SpeculationBuffer &spec, trace::Manager *const &mgr,
                    std::uint16_t unit, Addr block, SpecId id,
                    Tick window);

/** The PM controller at the bottom of the memory system. */
class PmController : public sim::SimObject
{
  public:
    PmController(sim::EventQueue &eq, StatGroup *parent,
                 const MemConfig &cfg, persistency::Design design,
                 std::string name = "pmc");

    /**
     * Regular-path PM read (the request missed every cache).
     * @param done invoked when the data returns.
     */
    void read(Addr block_addr, Waiter done);

    /**
     * Regular-path writeback (dirty LLC eviction or explicit CLWB
     * flush). Handling is design-specific; see the file comment.
     * @return true once the writeback is accepted into the persistent
     *         domain (always, for designs that drop it -- the caller's
     *         flush is then trivially "complete"); false when the
     *         write queue is full: the caller waits for admission.
     */
    bool writeBack(Addr block_addr);

    /**
     * A persist arrives from a persist-path or persist buffer.
     * @return false when the write queue is full (backpressure): the
     *         caller waits for admission.
     */
    bool acceptPersist(CoreId core, Addr block_addr,
                       std::optional<SpecId> spec_id);

    /**
     * Wait for a write-queue slot after a refused writeBack or
     * acceptPersist. `on_admit` runs, after every earlier waiter,
     * when a retiring write leaves a slot free; it must offer its
     * write again, which is then accepted.
     */
    void awaitAdmission(Waiter on_admit);

    /** HOPS: keep the PMC bloom filter in sync with buffer contents. */
    void filterInsert(Addr block_addr);
    void filterRemove(Addr block_addr);

    /** The speculation buffer (valid only for Design::PmemSpec). */
    SpeculationBuffer &specBuffer();

    /** Attach the machine's event recorder; `unit` is this PMC's
     *  index (forwarded to the speculation buffer). */
    void setTraceManager(trace::Manager *mgr, std::uint16_t unit = 0);

    /** Occupancies, for tests. */
    unsigned readQueueOccupancy() const { return outstandingReads; }
    unsigned writeQueueOccupancy() const
    {
        return static_cast<unsigned>(writeQueue);
    }

    Counter reads;
    Counter writes;
    Counter writeCoalesces;
    Counter droppedWritebacks;
    Counter persistsAccepted;
    Counter persistsRefused;
    /** IntelX86 writebacks (LLC evictions, CLWBs) refused on a full
     *  write queue; each then waits for admission. */
    Counter writeBacksRefused;
    Counter bloomTrueHits;
    Counter bloomFalsePositives;
    Accumulator readLatencyStat;
    /** ns each admitted waiter waited for a write-queue slot. */
    Accumulator admissionWait;

  private:
    /** One read from request to delivery; the events that advance it
     *  name its slot. */
    struct PendingRead
    {
        Addr block = 0;
        Tick enq = 0; ///< when the read was queued
        Waiter done;
    };

    /** A write waiting for a write-queue slot. */
    struct Admission
    {
        Tick since = 0; ///< when it was refused
        Waiter admit;
    };

    /** Issue slot s's device read, or queue it until the read queue
     *  has room. */
    void serviceRead(std::uint32_t s);

    /** Slot s's device read returned: admit the oldest waiting read,
     *  then deliver. */
    void finishRead(std::uint32_t s);

    /** Whether a write of this block finds no write-queue slot (a
     *  coalescing write needs none). */
    bool writeQueueFull(Addr block_addr) const;

    /** Push one write into the banked device. */
    void serviceWrite(Addr block_addr);

    /** A queued write finished: admit waiters while a slot is free. */
    void retireWrite();

    Tick &bankFree(Addr block_addr);

    const MemConfig cfg;
    persistency::Design design;

    std::vector<Tick> banks; ///< per-bank availability (reads)
    Tick writeServerFree = 0; ///< aggregate write-bandwidth server
    unsigned outstandingReads = 0;
    unsigned writeQueue = 0;

    /** Reads in flight; a slot without a continuation is free. */
    std::vector<PendingRead> readSlots;
    /** Read slots waiting for the read queue, oldest first. */
    WaiterFifo<std::uint32_t> readWaiters;
    /** Writes waiting for a write-queue slot, oldest first. */
    WaiterFifo<Admission> admissions;
    /** HOPS: read slots held until their block leaves the persist
     *  buffers. */
    BlockWaiters<std::uint32_t> heldReads;

    /**
     * All per-block controller state -- write-queue coalescability
     * (Section 4.2), the HOPS pending-persist count and
     * read waiters, and the Section 5.2.2 spec-ID order automaton --
     * in one struct-of-arrays open-addressing table.
     */
    BlockTable blocks;

    /** HOPS: bloom filter over the persist buffers' contents; the
     *  block table holds the true counts behind it. */
    BloomFilter bloom;

    /** PMEM-Spec machinery. */
    std::optional<SpeculationBuffer> specBuf;

    trace::Manager *traceMgr = nullptr;
    std::uint16_t traceUnit = 0;
};

} // namespace pmemspec::mem

#endif // PMEMSPEC_MEM_PM_CONTROLLER_HH
