/**
 * @file
 * The timing core replaying one thread's trace.
 *
 * The model approximates the paper's 8-way out-of-order core at the
 * granularity that matters for persistency-model comparisons:
 *
 *  - a 32-entry store queue drains to the L1 in the background; the
 *    core only stalls when it fills (Table 3);
 *  - independent PM loads overlap up to an MLP limit; dependent loads
 *    (pointer chases) block the core until data returns;
 *  - non-memory work is charged through Compute ticks and a per-
 *    instruction issue debt;
 *  - fences implement the design-specific semantics: SFENCE blocks
 *    *everything* until the SQ drains and all CLWBs are acknowledged;
 *    dfence and spec-barrier are non-blocking for volatile work
 *    (Section 8.2.1: they "do not block volatile memory operations as
 *    SFENCE does") -- loads and compute continue, while later stores,
 *    CLWBs, lock releases and barriers wait for completion.
 *
 * Misspeculation recovery (Section 6) is modelled as a true rollback:
 * the machine asks every core inside a FASE to abort; once the core
 * quiesces it releases the FASE's locks, rewinds its program counter
 * to the FaseBegin marker and resumes after the recovery penalty.
 */

#ifndef PMEMSPEC_CPU_CORE_HH
#define PMEMSPEC_CPU_CORE_HH

#include <optional>
#include <set>

#include "common/fifo_ring.hh"
#include "common/inplace_fn.hh"
#include "common/stats.hh"
#include "common/trace.hh"
#include "common/types.hh"
#include "common/waiter_list.hh"
#include "cpu/lock_table.hh"
#include "cpu/trace.hh"
#include "mem/memory_system.hh"
#include "observe/spec_profile.hh"
#include "sim/clock.hh"
#include "sim/sim_object.hh"

namespace pmemspec::cpu
{

/** Per-core microarchitectural knobs (Table 3 defaults). */
struct CoreConfig
{
    /** Store queue entries (Table 3: 32-entry Ld/St queue). */
    unsigned sqEntries = 32;
    /** Maximum overlapped loads (miss-level parallelism). */
    unsigned maxLoads = 8;
    /** Issue width used to charge per-instruction issue debt. */
    unsigned issueWidth = 8;
    /** Core clock. */
    double freqGhz = 2.0;
};

/** One timing core. */
class Core : public sim::SimObject
{
  public:
    Core(sim::EventQueue &eq, StatGroup *parent, CoreId id,
         const CoreConfig &cfg, mem::MemorySystem &memsys,
         LockTable &lock_table);

    /** Provide the thread's instruction stream before start(). */
    void setTrace(Trace t);

    /** Provide the spec-assign source (the machine's global
     *  monotonically increasing counter). */
    void setSpecIdSource(InplaceFn<SpecId()> src);

    /** Begin execution at the current tick. */
    void start();

    bool done() const { return pcDone; }
    Tick finishTick() const { return doneTick; }
    std::uint64_t fasesCompleted() const { return fases.value(); }

    /** Machine-wide pause (speculation buffer full, Section 5.3). */
    void pauseUntil(Tick t);

    /**
     * Abort the FASE in flight (virtual power failure, Section 6.2).
     * No-op if the core is not inside a FASE. The core quiesces,
     * releases its FASE locks, rewinds to FaseBegin and resumes after
     * `penalty` (the interrupt + abort-handler cost).
     */
    void abortCurrentFase(Tick penalty);

    bool inFase() const { return insideFase; }

    /** Attach the machine's event recorder. */
    void setTraceManager(trace::Manager *mgr) { traceMgr = mgr; }

    /** Attach the machine's per-FASE-site speculation profile.
     *  Timing-side sites are keyed by FaseBegin program counter. */
    void setSpecProfile(observe::SpecProfile *p) { specProf = p; }

    /** Execution state as a small integer for metrics gauges
     *  (0 Idle, 1 Running, 2 Waiting, 3 Aborting). */
    unsigned stateCode() const { return static_cast<unsigned>(state); }

    Counter instructions;
    Counter fases;
    Counter aborts;
    Counter sfenceStalls;
    Counter dfenceStalls;
    Counter specBarrierStalls;
    Counter sqFullStalls;
    Accumulator faseLatency; ///< committed FASE latency (ns)

  private:
    enum class State
    {
        Idle,      ///< before start() / after the trace ends
        Running,   ///< advance() is processing instructions
        Waiting,   ///< blocked on a completion callback
        Aborting,  ///< draining in-flight work before rollback
    };

    struct SqEntry
    {
        Addr addr;
        std::optional<SpecId> specId;
        bool isClwb;
    };

    /** Schedule advance() at now (or resumeAt) if not already queued. */
    void requestAdvance();
    void advance();

    /** Execute one instruction; @return true to keep advancing. */
    bool execute(const TraceInstr &instr);

    /** Charge 1/issueWidth cycle; may schedule a debt payment. */
    bool chargeIssue();

    void pushSq(Addr addr, bool is_clwb);
    void pumpSq();
    void onSqHeadDone();

    void onLoadDone(bool dependent, std::uint64_t gen);
    void onBarrierDone(std::uint64_t gen);

    /** Block until the SQ is empty and every issued CLWB has been
     *  acknowledged, then run `then`. */
    void
    waitDrained(Waiter then)
    {
        drainWaiters.runOrAdd(drained(), std::move(then));
    }

    bool drained() const { return sq.empty() && clwbOutstanding == 0; }
    /** No instruction in flight anywhere. */
    bool
    quiesced() const
    {
        return drained() && outstandingLoads == 0 &&
               barriersOutstanding == 0;
    }
    void wakeDrainWaiters();

    /** While aborting, roll back once quiesced.
     *  @return false if the core is not aborting. */
    bool maybeFinishAbort();
    void finishAbort();
    /** Commit the open FASE (throughput + latency accounting). */
    void closeFase();

    /** A wake that ignores completions from a pre-abort epoch. */
    auto guardedWake();
    /** Leave the Waiting state and advance. */
    void resume();
    /** Retire the finished trace once nothing is in flight. */
    void finishIfQuiesced();

    CoreId id;
    CoreConfig cfg;
    sim::Clock clock;
    mem::MemorySystem &memsys;
    LockTable &locks;

    Trace trace;
    std::size_t pc = 0;
    bool pcDone = false;
    Tick doneTick = 0;
    State state = State::Idle;
    bool advancePending = false;
    Tick pausedUntil = 0;
    std::uint64_t issueDebtCycles = 0;

    FifoRing<SqEntry> sq;
    bool sqDraining = false;
    unsigned outstandingLoads = 0;
    /** CLWB flushes issued but not yet acknowledged by the PMC. */
    unsigned clwbOutstanding = 0;
    /** Non-blocking persist barriers (dfence/spec-barrier) still in
     *  flight; they gate stores and lock releases, not loads. */
    unsigned barriersOutstanding = 0;
    bool waitingLoadSlot = false;
    bool waitingSqSlot = false;
    bool waitingBarrier = false;
    /** Trace exhausted; waiting for in-flight work before done. */
    bool waitingFinish = false;
    WaiterList<> drainWaiters;

    std::optional<SpecId> specIdReg;
    InplaceFn<SpecId()> specIdSource;

    bool insideFase = false;
    /** FaseEnd retired while the durability barrier was pending; the
     *  FASE commits (and stops being abortable) when it completes. */
    bool faseClosePending = false;
    std::size_t faseBeginPc = 0;
    Tick faseBeginTick = 0;
    /** Per-FASE persist accounting for the speculation profile; only
     *  maintained while a profile is attached and enabled. */
    std::uint64_t faseStores = 0;
    std::set<Addr> faseBlocks;
    observe::SpecProfile *specProf = nullptr;
    /** Site id of the open FASE in specProf (by FaseBegin pc). */
    unsigned faseSite = 0;
    std::vector<unsigned> fasesLocks; ///< locks held by the open FASE
    std::optional<unsigned> waitingLockId;
    Tick abortPenalty = 0;
    std::uint64_t generation = 0;

    trace::Manager *traceMgr = nullptr;
};

} // namespace pmemspec::cpu

#endif // PMEMSPEC_CPU_CORE_HH
