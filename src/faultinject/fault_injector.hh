/**
 * @file
 * Deterministic fault injector: the missing wire between the
 * PMEM-Spec hardware model and the failure-atomic runtime.
 *
 * The injector owns a *real* speculation buffer (the Figure 5/8
 * automaton from src/mem) on its own event queue and attaches to a
 * functional PersistentMemory as its access observer. Armed
 * FaultPlans watch the access stream; when one triggers, the
 * injector synthesizes the corresponding hardware event:
 *
 *  - LoadStale: WriteBack then Read reach the buffer, the racing
 *    Persist is scheduled over the virtual persist path after a
 *    configurable delay -- the genuine WriteBack(s)-Read(s)-Persist
 *    misspeculation pattern;
 *  - StoreWaw: two persists with inverted speculation IDs arrive at
 *    the (modelled) PM-controller order check inside the window;
 *  - PersistDelay: a persist is held back with no racing read -- a
 *    benign reorder that must not trap;
 *  - PowerCut: PersistentMemory::crash(prefix) -- crashTorn(prefix,
 *    mask) when the cut tears its frontier -- plus a PowerFailure
 *    throw, unwinding the interrupted FASE like a real outage.
 *
 * attach() makes the injector the PM's one observer; with no plan
 * armed an access stops at one empty-vector test. A component that
 * wants plans to see some accesses and not others (the service shard
 * keeps recovery and its oracle reads away from them) attaches it
 * around the accesses that count.
 *
 * Misspeculations then travel the *actual* trap path of Section 6.1:
 * the buffer's callback raises VirtualOs::raiseMisspecInterrupt, the
 * OS reverse map resolves the owning process, and the registered
 * FaseRuntime aborts and re-executes under its Lazy or Eager policy.
 * Nothing in the recovery chain is mocked.
 */

#ifndef PMEMSPEC_FAULTINJECT_FAULT_INJECTOR_HH
#define PMEMSPEC_FAULTINJECT_FAULT_INJECTOR_HH

#include <memory>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "faultinject/fault_plan.hh"
#include "mem/block_table.hh"
#include "mem/speculation_buffer.hh"
#include "runtime/persistent_memory.hh"
#include "runtime/virtual_os.hh"
#include "sim/event_queue.hh"

namespace pmemspec::faultinject
{

/** Thrown out of the interrupted FASE when a PowerCut fires. */
struct PowerFailure : runtime::PowerLoss
{
    std::size_t durablePrefix; ///< persists that made it to PM
    /** True when the cut's mask tore the frontier persist. */
    bool torn = false;
};

/** The injector; see the file comment. */
class FaultInjector
{
  public:
    /**
     * @param pm  The functional PM the workload runs against.
     * @param os  The OS relay the target runtime registered with.
     * @param spec_entries  Speculation-buffer capacity.
     * @param window        Speculation window (virtual ticks).
     */
    FaultInjector(runtime::PersistentMemory &pm,
                  runtime::VirtualOs &os, unsigned spec_entries = 16,
                  Tick window = nsToTicks(1000));
    ~FaultInjector();

    FaultInjector(const FaultInjector &) = delete;
    FaultInjector &operator=(const FaultInjector &) = delete;

    /** Install the injector as the PM's access observer (a no-op
     *  while attached). */
    void attach();
    /** Remove the observer (also done by the destructor). */
    void detach();

    /** Arm a plan; armed plans see each access in arming order. */
    void addPlan(std::unique_ptr<FaultPlan> plan);
    /** Disarm one plan (nothing happens if it is not armed). */
    void removePlan(const FaultPlan *plan);
    void clearPlans();

    // ---- Direct injection primitives (plans route through these,
    // ---- tests may call them directly). ----

    /** Fire a genuine load-stale misspeculation at `addr`: the
     *  persist arrives `persist_delay` after the stale read. */
    void injectLoadStale(Addr addr, Tick persist_delay = 0);

    /** Fire a store-WAW order violation at `addr`. */
    void injectStoreWaw(Addr addr);

    /** Hold a persist back benignly (no interrupt expected). */
    void injectDelayedPersist(Addr addr, Tick delay);

    /** Cut power keeping `prefix` in-flight persists (clamped to the
     *  queue's length) plus, for a non-zero `mask`, that word subset
     *  of persist prefix+1 (a torn frontier); throws PowerFailure,
     *  torn when `mask` is set (never returns). */
    [[noreturn]] void injectPowerCut(std::size_t prefix,
                                     std::uint64_t mask = 0);

    /** Silently corrupt the durable word at `addr` by XORing
     *  `xor_mask` into it (0 flips bit 0). Nothing traps here --
     *  detection is the checksum layer's job. */
    void injectBitFlip(Addr addr, std::uint64_t xor_mask = 1);

    /** Mark the 8-byte word at `addr` uncorrectable; subsequent
     *  reads overlapping it raise runtime::MediaError. */
    void injectPoison(Addr addr);

    /** The hardware model under injection. */
    mem::SpeculationBuffer &specBuffer() { return *specBuf; }
    sim::EventQueue &eventQueue() { return eq; }

    /**
     * Attach an event recorder (nullptr detaches): the injector fills
     * its run metadata, clocks it from the injector's event queue,
     * makes it the thread's flight recorder, and cascades it to the
     * speculation buffer and the modelled PMC order check -- the
     * resulting stream is exactly what the offline trace checker
     * replays as an oracle over injection campaigns.
     */
    void setTraceManager(trace::Manager *mgr);

    std::uint64_t loadStalesInjected() const { return loadStales; }
    std::uint64_t storeWawsInjected() const { return storeWaws; }
    std::uint64_t powerCutsInjected() const { return powerCuts; }
    std::uint64_t persistDelaysInjected() const { return persistDelays; }
    std::uint64_t bitFlipsInjected() const { return bitFlips; }
    std::uint64_t poisonsInjected() const { return poisons; }
    /** Misspec interrupts the buffer raised into the OS. */
    std::uint64_t interruptsRaised() const { return interrupts; }

  private:
    /** Show one access to every armed plan (the observer has
     *  checked that one is armed). */
    void onAccess(runtime::MemOp op, Addr a, std::uint32_t n);
    void fire(const FaultAction &action);

    /** Modelled PMC order check (Section 5.2.2): the PMC's own
     *  mem::stepStoreOrder on the injector's table and queue, so one
     *  checker model covers both: a tagged persist with a lower spec
     *  ID than one recorded for the block within the window is a
     *  store misspeculation. */
    void persistArrives(Addr block, SpecId id);

    runtime::PersistentMemory &pm;
    runtime::VirtualOs &os;
    sim::EventQueue eq;
    StatGroup statRoot;
    std::unique_ptr<mem::SpeculationBuffer> specBuf;
    Tick window;
    Tick defaultPersistDelay;

    /** Armed plans. Each counts the accesses it sees from its own
     *  arming, so accesses made while none is armed need not reach
     *  the injector at all. */
    std::vector<std::unique_ptr<FaultPlan>> plans;
    bool firing = false; ///< reentrancy guard while injecting
    bool attached = false;

    /** Per-block spec-ID order automata (same table the PMC uses). */
    mem::BlockTable specTrack;

    std::uint64_t loadStales = 0;
    std::uint64_t storeWaws = 0;
    std::uint64_t powerCuts = 0;
    std::uint64_t persistDelays = 0;
    std::uint64_t bitFlips = 0;
    std::uint64_t poisons = 0;
    std::uint64_t interrupts = 0;

    trace::Manager *traceMgr = nullptr;
};

} // namespace pmemspec::faultinject

#endif // PMEMSPEC_FAULTINJECT_FAULT_INJECTOR_HH
