/**
 * @file
 * A simulated multicore machine: cores, lock table, memory system and
 * the misspeculation-recovery glue (the "OS" of the timing layer).
 */

#ifndef PMEMSPEC_CPU_MACHINE_HH
#define PMEMSPEC_CPU_MACHINE_HH

#include <memory>
#include <vector>

#include "common/stats.hh"
#include "common/trace.hh"
#include "cpu/core.hh"
#include "cpu/lock_table.hh"
#include "cpu/trace.hh"
#include "mem/memory_system.hh"
#include "observe/metrics.hh"
#include "observe/spec_profile.hh"
#include "persistency/design.hh"
#include "runtime/virtual_os.hh"
#include "sim/event_queue.hh"

namespace pmemspec::cpu
{

/** Whole-machine configuration. */
struct MachineConfig
{
    mem::MemConfig mem;
    CoreConfig core;
    persistency::Design design = persistency::Design::PmemSpec;

    /** HW-interrupt + OS relay latency on misspeculation detection
     *  (Section 6.1.1) before the rollback begins. */
    Tick misspecInterruptLatency = nsToTicks(2000);
    /** Abort-handler cost before a FASE re-executes. */
    Tick abortHandlerLatency = nsToTicks(1000);

    /** Safety valve: panic if a run exceeds this many events. */
    std::uint64_t maxEvents = 4'000'000'000ULL;

    /** Event-trace / flight-recorder configuration (off by default;
     *  wired from --trace / --trace-out / --flight-recorder). */
    trace::Config trace;

    /** Time-series metrics sampling (off by default; wired from
     *  --metrics / --metrics-interval-us). */
    observe::MetricsConfig metrics;
};

/** Result of one timing run. */
struct RunResult
{
    Tick simTicks = 0;          ///< last core's finish tick
    std::uint64_t fases = 0;    ///< committed FASEs across cores
    std::uint64_t instructions = 0;
    std::uint64_t loadMisspecs = 0;
    std::uint64_t storeMisspecs = 0;
    std::uint64_t aborts = 0;
    std::uint64_t specBufFullPauses = 0;
    /** Section 7 oracle: undetectable cross-PMC order violations. */
    std::uint64_t crossPmcReorderHazards = 0;
    /** Host-side cost metric: discrete events the kernel executed. */
    std::uint64_t events = 0;

    /** Committed FASEs per simulated second. */
    double
    throughput() const
    {
        if (simTicks == 0)
            return 0;
        return static_cast<double>(fases) /
               (static_cast<double>(simTicks) * 1e-12);
    }
};

/** The simulated machine. */
class Machine
{
  public:
    explicit Machine(const MachineConfig &cfg);

    /** One trace per core; must match cfg.mem.numCores. */
    void setTraces(std::vector<Trace> traces);

    /** Run to completion and gather the result. */
    RunResult run();

    sim::EventQueue &eventQueue() { return eq; }
    mem::MemorySystem &memory() { return *memsys; }
    Core &core(CoreId c) { return *cores.at(c); }
    StatGroup &stats() { return root; }
    const MachineConfig &config() const { return cfg; }

    /** The OS half of the trap path: the speculation buffer raises
     *  its interrupt into this relay, which resolves the faulting
     *  address through the reverse map and invokes the machine's
     *  rollback handler (Section 6.1.1). */
    runtime::VirtualOs &os() { return vos; }

    /** Next spec-assign value (exposed for tests). */
    SpecId specCounterValue() const { return specCounter; }

    /** The machine's event recorder (nullptr when tracing is off). */
    trace::Manager *traceManager() { return traceMgr.get(); }

    /** The machine's metrics registry (nullptr when metrics are off).
     *  Columns cover per-PMC speculation-window occupancy, read/write
     *  queue depth, persist-path in-flight persists, and per-core
     *  state; sampled every cfg.metrics.interval simulated ticks.
     *  Counter columns carry their qualified stats() names. */
    observe::MetricsRegistry *metricsRegistry() { return metricsReg.get(); }

    /** Per-FASE-site speculation profile (sites keyed by FaseBegin
     *  pc; nullptr when metrics are off). */
    observe::SpecProfile *specProfile() { return specProf.get(); }

  private:
    void onMisspeculation(Addr addr, mem::MisspecKind kind);
    /** OS-relayed half of the trap: broadcast the rollback. */
    void deliverMisspecSignal(Addr fault_addr);
    void onSpecBufferFull(Tick window);

    void buildMetrics();

    MachineConfig cfg;
    sim::EventQueue eq;
    StatGroup root;
    std::unique_ptr<trace::Manager> traceMgr;
    std::unique_ptr<observe::MetricsRegistry> metricsReg;
    std::unique_ptr<observe::MetricsSampler> metricsSampler;
    std::unique_ptr<observe::SpecProfile> specProf;
    std::unique_ptr<mem::MemorySystem> memsys;
    std::unique_ptr<LockTable> locks;
    std::vector<std::unique_ptr<Core>> cores;
    runtime::VirtualOs vos;
    runtime::Pid vosPid = 0;
    SpecId specCounter = 1;
    Counter misspecInterrupts;
};

} // namespace pmemspec::cpu

#endif // PMEMSPEC_CPU_MACHINE_HH
