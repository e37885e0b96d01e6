#include "machine.hh"

#include <algorithm>

#include "common/logging.hh"

namespace pmemspec::cpu
{

using persistency::Design;

Machine::Machine(const MachineConfig &cfg_)
    : cfg(cfg_), root("machine")
{
    if (cfg.trace.enabled()) {
        traceMgr = std::make_unique<trace::Manager>(cfg.trace,
                                                    cfg.mem.numCores);
        traceMgr->meta.design = persistency::designName(cfg.design);
        traceMgr->meta.flags = cfg.trace.flags;
        traceMgr->meta.specWindow = cfg.mem.effectiveSpecWindow();
        traceMgr->meta.specEntries = cfg.mem.specBufferEntries;
        traceMgr->meta.numCores = cfg.mem.numCores;
        traceMgr->meta.specAutomaton = cfg.design == Design::PmemSpec;
        traceMgr->setClock([this] { return eq.now(); });
        traceMgr->makeCurrent();
    }

    memsys = std::make_unique<mem::MemorySystem>(eq, &root, cfg.mem,
                                                 cfg.design);
    locks = std::make_unique<LockTable>(eq, &root);
    memsys->setTraceManager(traceMgr.get());

    for (CoreId c = 0; c < cfg.mem.numCores; ++c) {
        cores.push_back(std::make_unique<Core>(eq, &root, c, cfg.core,
                                               *memsys, *locks));
        cores.back()->setTraceManager(traceMgr.get());
        cores.back()->setSpecIdSource([this] {
            // spec-assign: read the counter, then increment -- the
            // atomicity is provided by the lock the thread holds.
            return specCounter++;
        });
    }

    if (cfg.design == Design::PmemSpec) {
        // The machine's one "process" image: its rollback handler is
        // reached through the OS reverse map, exactly like the
        // functional runtime's (Section 6.1.1). All of simulated PM
        // belongs to it.
        vosPid = vos.registerProcess(
            [this](Addr fault) { deliverMisspecSignal(fault); });
        vos.registerRegion(vosPid, 0, Addr{1} << 62);
        for (unsigned i = 0; i < memsys->numPmcs(); ++i) {
            auto &sb = memsys->pmc(i).specBuffer();
            sb.setMisspecCallback([this](Addr a, mem::MisspecKind k) {
                onMisspeculation(a, k);
            });
            sb.setPauseCallback(
                [this](Tick w) { onSpecBufferFull(w); });
        }
    }
    root.addCounter("misspecInterrupts", &misspecInterrupts,
                    "virtual-power-failure interrupts delivered");

    if (cfg.metrics.enabled())
        buildMetrics();
}

void
Machine::buildMetrics()
{
    specProf = std::make_unique<observe::SpecProfile>();
    for (auto &core : cores)
        core->setSpecProfile(specProf.get());

    metricsReg = std::make_unique<observe::MetricsRegistry>();
    observe::MetricsRegistry &reg = *metricsReg;
    // Counters are sampled under their StatGroup names; the gauges
    // (no end-of-run stat) are prefixed with their owner's group.
    for (unsigned i = 0; i < memsys->numPmcs(); ++i) {
        mem::PmController &pmc = memsys->pmc(i);
        const std::string p = pmc.stats().fullName() + ".";
        reg.addGauge(p + "read_q",
                     [&pmc] { return double(pmc.readQueueOccupancy()); });
        reg.addGauge(p + "write_q",
                     [&pmc] { return double(pmc.writeQueueOccupancy()); });
        reg.addStat(pmc.stats(), "persistsAccepted");
        if (cfg.design == Design::PmemSpec) {
            auto &sb = pmc.specBuffer();
            reg.addGauge(sb.stats().fullName() + ".occupancy",
                         [&sb] { return double(sb.occupancy()); });
            reg.addStat(sb.stats(), "fullPauses");
        }
    }
    // In-flight persists summed over every persist-path lane: the
    // "queue depth" the speculation window has to cover.
    reg.addGauge(memsys->stats().fullName() + ".path_in_flight", [this] {
        std::size_t n = 0;
        for (std::size_t i = 0; i < memsys->numPaths(); ++i)
            n += memsys->pathAt(i).occupancy();
        return double(n);
    });
    for (auto &c : cores) {
        Core &core = *c;
        const std::string p = core.stats().fullName() + ".";
        reg.addGauge(p + "state",
                     [&core] { return double(core.stateCode()); });
        reg.addGauge(p + "in_fase",
                     [&core] { return core.inFase() ? 1.0 : 0.0; });
        reg.addStat(core.stats(), "aborts");
    }
    reg.addStat(root, "misspecInterrupts");

    metricsSampler = std::make_unique<observe::MetricsSampler>(
        eq, reg, cfg.metrics.interval);
}

void
Machine::setTraces(std::vector<Trace> traces)
{
    fatal_if(traces.size() != cores.size(),
             "%zu traces for %zu cores", traces.size(), cores.size());
    for (CoreId c = 0; c < cores.size(); ++c)
        cores[c]->setTrace(std::move(traces[c]));
}

void
Machine::onMisspeculation(Addr addr, mem::MisspecKind kind)
{
    (void)kind;
    // The hardware stores the faulting address in the designated
    // mailbox and raises the interrupt; the OS resolves the owner
    // through its reverse map and relays the signal.
    const auto pid = vos.raiseMisspecInterrupt(addr);
    panic_if(!pid, "misspec interrupt at %#llx owned by no process",
             static_cast<unsigned long long>(addr));
}

void
Machine::deliverMisspecSignal(Addr fault_addr)
{
    ++misspecInterrupts;
    PMEMSPEC_TRACE(traceMgr.get(), FlagFaseRuntime,
                   trace::EventKind::OsTrap, eq.now(), trace::kNoCore,
                   fault_addr, {.arg = misspecInterrupts.value()});
    if (traceMgr && traceMgr->config().flightRecorder)
        traceMgr->dump(stderr);
    // After the relay latency, every thread currently inside a FASE
    // aborts and re-executes (conservative rollback, Section 6.2).
    eq.schedule(After{cfg.misspecInterruptLatency}, [this] {
        for (auto &core : cores)
            core->abortCurrentFase(cfg.abortHandlerLatency);
    });
}

void
Machine::onSpecBufferFull(Tick window)
{
    // "All cores pause and resume after the speculation window to
    // make free spaces in the speculation buffer" (Section 5.3).
    const Tick until = eq.now() + window;
    for (auto &core : cores)
        core->pauseUntil(until);
}

RunResult
Machine::run()
{
    for (auto &core : cores)
        core->start();
    if (metricsSampler)
        metricsSampler->start();

    const bool drained = eq.run(cfg.maxEvents);
    panic_if(!drained, "event budget exhausted: deadlock or runaway "
                       "(executed %llu events)",
             static_cast<unsigned long long>(eq.executed()));
    const auto finished = std::count_if(
        cores.begin(), cores.end(), [](auto &c) { return c->done(); });
    panic_if(std::size_t(finished) != cores.size(),
             "event queue drained but only %zu/%zu cores finished "
             "(deadlock)", std::size_t(finished), cores.size());

    RunResult r;
    r.events = eq.executed();
    for (auto &core : cores) {
        r.simTicks = std::max(r.simTicks, core->finishTick());
        r.fases += core->fasesCompleted();
        r.instructions += core->instructions.value();
        r.aborts += core->aborts.value();
    }
    if (cfg.design == Design::PmemSpec) {
        for (unsigned i = 0; i < memsys->numPmcs(); ++i) {
            auto &sb = memsys->pmc(i).specBuffer();
            r.loadMisspecs += sb.loadMisspecs.value();
            r.storeMisspecs += sb.storeMisspecs.value();
            r.specBufFullPauses += sb.fullPauses.value();
        }
        r.crossPmcReorderHazards =
            memsys->crossPmcReorderHazards.value();
    }
    return r;
}

} // namespace pmemspec::cpu
