#include "fault_injector.hh"

#include <algorithm>

#include "common/logging.hh"
#include "mem/pm_controller.hh"

namespace pmemspec::faultinject
{

FaultInjector::FaultInjector(runtime::PersistentMemory &pm_,
                             runtime::VirtualOs &os_,
                             unsigned spec_entries, Tick window_)
    : pm(pm_), os(os_), statRoot("faultinject"), window(window_),
      defaultPersistDelay(window_ / 8 ? window_ / 8 : 1)
{
    specBuf = std::make_unique<mem::SpeculationBuffer>(
        eq, &statRoot, spec_entries, window);
    // The real trap path of Section 6.1: the hardware's interrupt
    // line terminates at the OS relay, which resolves the faulting
    // address through the reverse map and signals the owning
    // runtime. No shortcut into FaseRuntime exists here.
    specBuf->setMisspecCallback([this](Addr a, mem::MisspecKind) {
        ++interrupts;
        os.raiseMisspecInterrupt(a);
    });
}

FaultInjector::~FaultInjector()
{
    detach();
}

void
FaultInjector::attach()
{
    if (attached)
        return;
    pm.setObserver([this](runtime::MemOp op, Addr a, std::uint32_t n) {
        if (!plans.empty())
            onAccess(op, a, n);
    });
    attached = true;
}

void
FaultInjector::detach()
{
    if (attached) {
        pm.setObserver(nullptr);
        attached = false;
    }
}

void
FaultInjector::setTraceManager(trace::Manager *mgr)
{
    traceMgr = mgr;
    specBuf->setTraceManager(mgr, 0);
    if (mgr) {
        mgr->meta.design = "PMEM-Spec";
        mgr->meta.flags = mgr->config().flags;
        mgr->meta.specWindow = window;
        mgr->meta.specEntries = specBuf->capacity();
        mgr->meta.numCores = 0; // functional layer: no timing cores
        mgr->meta.specAutomaton = true;
        mgr->setClock([this] { return eq.now(); });
        mgr->makeCurrent();
    }
}

void
FaultInjector::addPlan(std::unique_ptr<FaultPlan> plan)
{
    plans.push_back(std::move(plan));
}

void
FaultInjector::removePlan(const FaultPlan *plan)
{
    std::erase_if(plans, [plan](const auto &p) { return p.get() == plan; });
}

void
FaultInjector::clearPlans()
{
    plans.clear();
}

void
FaultInjector::onAccess(runtime::MemOp op, Addr a, std::uint32_t n)
{
    if (firing)
        return; // accesses made while injecting do not re-trigger
    const AccessInfo info{op, a, n, pm.inFlightCount()};
    for (auto &plan : plans) {
        if (auto action = plan->onAccess(info))
            fire(*action);
    }
}

void
FaultInjector::fire(const FaultAction &action)
{
    firing = true;
    struct Unguard
    {
        bool &flag;
        ~Unguard() { flag = false; }
    } unguard{firing};

    switch (action.kind) {
      case FaultKind::LoadStale:
        injectLoadStale(action.addr, action.delay);
        break;
      case FaultKind::StoreWaw:
        injectStoreWaw(action.addr);
        break;
      case FaultKind::PersistDelay:
        injectDelayedPersist(action.addr, action.delay);
        break;
      case FaultKind::BitFlip:
        injectBitFlip(action.addr, action.mask);
        break;
      case FaultKind::Poison:
        injectPoison(action.addr);
        break;
      case FaultKind::PowerCut:
        injectPowerCut(action.prefix, action.mask); // throws
    }
}

void
FaultInjector::injectLoadStale(Addr addr, Tick persist_delay)
{
    const Addr block = blockAlign(addr);
    const Tick delay =
        persist_delay ? persist_delay : defaultPersistDelay;
    panic_if(delay >= window, "persist delay %llu must fit inside "
                              "the speculation window %llu",
             static_cast<unsigned long long>(delay),
             static_cast<unsigned long long>(window));
    ++loadStales;
    PMEMSPEC_TRACE(traceMgr, FlagFaultInject,
                   trace::EventKind::InjectFault, eq.now(),
                   trace::kNoCore, block,
                   {.arg = static_cast<std::uint64_t>(
                        FaultKind::LoadStale)});
    // The genuine automaton walk: the dirty block's LLC writeback is
    // dropped at the PMC (monitoring starts), the load is served
    // stale from PM (Evict -> Speculated), and the superseding store
    // is still crossing the persist path...
    specBuf->writeBack(block);
    specBuf->read(block);
    eq.schedule(After{delay}, [this, block] { specBuf->persist(block); });
    // ...until it arrives inside the window and the automaton flags
    // the misspeculation, raising the interrupt synchronously.
    eq.runUntil(eq.now() + delay);
}

void
FaultInjector::injectStoreWaw(Addr addr)
{
    const Addr block = blockAlign(addr);
    ++storeWaws;
    PMEMSPEC_TRACE(traceMgr, FlagFaultInject,
                   trace::EventKind::InjectFault, eq.now(),
                   trace::kNoCore, block,
                   {.arg = static_cast<std::uint64_t>(
                        FaultKind::StoreWaw)});
    // Reordered persist-path arrivals: the program-order-later store
    // (higher spec ID) lands first, then the earlier one -- the
    // pattern the PMC's spec-ID order check condemns.
    persistArrives(block, SpecId{8});
    persistArrives(block, SpecId{3});
}

void
FaultInjector::injectDelayedPersist(Addr addr, Tick delay)
{
    const Addr block = blockAlign(addr);
    ++persistDelays;
    PMEMSPEC_TRACE(traceMgr, FlagFaultInject,
                   trace::EventKind::InjectFault, eq.now(),
                   trace::kNoCore, block,
                   {.arg = static_cast<std::uint64_t>(
                        FaultKind::PersistDelay)});
    specBuf->writeBack(block);
    eq.schedule(After{delay}, [this, block] { specBuf->persist(block); });
    eq.runUntil(eq.now() + delay);
}

void
FaultInjector::injectPowerCut(std::size_t prefix, std::uint64_t mask)
{
    ++powerCuts;
    PMEMSPEC_TRACE(traceMgr, FlagFaultInject,
                   trace::EventKind::InjectFault, eq.now(),
                   trace::kNoCore, 0,
                   {.arg = static_cast<std::uint64_t>(
                        FaultKind::PowerCut)});
    const std::size_t durable =
        prefix < pm.inFlightCount() ? prefix : pm.inFlightCount();
    if (mask)
        pm.crashTorn(durable, mask);
    else
        pm.crash(durable);
    throw PowerFailure{{}, durable, mask != 0};
}

void
FaultInjector::injectBitFlip(Addr addr, std::uint64_t xor_mask)
{
    ++bitFlips;
    PMEMSPEC_TRACE(traceMgr, FlagFaultInject,
                   trace::EventKind::InjectFault, eq.now(),
                   trace::kNoCore, addr,
                   {.arg = static_cast<std::uint64_t>(
                        FaultKind::BitFlip)});
    pm.corruptWord(addr, xor_mask ? xor_mask : 1);
}

void
FaultInjector::injectPoison(Addr addr)
{
    ++poisons;
    PMEMSPEC_TRACE(traceMgr, FlagFaultInject,
                   trace::EventKind::InjectFault, eq.now(),
                   trace::kNoCore, addr,
                   {.arg = static_cast<std::uint64_t>(
                        FaultKind::Poison)});
    pm.poisonWord(addr);
}

void
FaultInjector::persistArrives(Addr block, SpecId id)
{
    PMEMSPEC_TRACE(traceMgr, FlagPmController,
                   trace::EventKind::PmcPersistAccept, eq.now(),
                   trace::kNoCore, block, {.specId = id});
    mem::stepStoreOrder(specTrack, eq, *specBuf, traceMgr, 0, block, id,
                        window);
}

} // namespace pmemspec::faultinject
