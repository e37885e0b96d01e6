#include "persist_path.hh"

#include <algorithm>

#include "common/logging.hh"

namespace pmemspec::mem
{

PersistPath::PersistPath(sim::EventQueue &eq, StatGroup *parent,
                         CoreId core, Tick latency, unsigned capacity,
                         DeliverFn deliver_fn)
    : sim::SimObject("persistPath" + std::to_string(core), eq, parent),
      occupancyHist(0, capacity + 1.0,
                    std::min<std::size_t>(capacity + 1, 64)),
      coreId(core),
      pathLatency(latency),
      deliver(std::move(deliver_fn)),
      fifo(capacity)
{
    stats().addCounter("sends", &sends, "persists pushed onto the path");
    stats().addCounter("deliveries", &deliveries,
                       "persists accepted by the PMC");
    stats().addCounter("pathRetries", &pathRetries,
                       "waits for PMC write-queue admission");
    stats().addAccumulator("occupancy", &occupancyStat,
                           "FIFO occupancy sampled at each send");
    stats().addHistogram("occupancyDist", &occupancyHist,
                         "FIFO occupancy distribution at each send");
}

void
PersistPath::send(Addr block_addr, std::optional<SpecId> spec_id)
{
    // Entries traverse the path in order: one flit per path cycle of
    // throughput, pathLatency of pipeline depth.
    const Tick one_flit = ticksPerNs; // 1 GB-ish flit rate: 1 flit/ns
    Tick arrival = std::max(curTick() + pathLatency,
                            lastArrival + one_flit);
    lastArrival = arrival;
    fifo.push_back(Flit{block_addr, spec_id, arrival});
    ++sends;
    occupancyStat.sample(static_cast<double>(fifo.size()));
    occupancyHist.sample(static_cast<double>(fifo.size()));
    PMEMSPEC_TRACE(traceMgr, FlagPersistPath, trace::EventKind::PathSend,
                   curTick(), coreId, block_addr,
                   {.specId = spec_id ? *spec_id : trace::kNoSpecId,
                    .arg = fifo.size(), .unit = traceUnit});
    if (!pumpPending)
        schedulePump(arrival);
}

void
PersistPath::schedulePump(Tick at)
{
    pumpPending = true;
    schedule(After{at > curTick() ? at - curTick() : 0},
             [this] { pump(); });
}

void
PersistPath::pump()
{
    pumpPending = false;
    if (fifo.empty())
        return;

    Flit &head = fifo.front();
    if (head.readyAt > curTick()) {
        schedulePump(head.readyAt);
        return;
    }

    Waiter on_admit = [this] { pump(); };
    if (!deliver(coreId, head.addr, head.specId, on_admit)) {
        // PMC write queue full: the PMC runs on_admit when it admits
        // the head; until then no event is pending.
        ++pathRetries;
        PMEMSPEC_TRACE(traceMgr, FlagPersistPath,
                       trace::EventKind::PathRetry, curTick(), coreId,
                       head.addr, {.unit = traceUnit});
        pumpPending = true;
        return;
    }
    ++deliveries;
    PMEMSPEC_TRACE(traceMgr, FlagPersistPath,
                   trace::EventKind::PathDeliver, curTick(), coreId,
                   head.addr,
                   {.specId = head.specId ? *head.specId
                                          : trace::kNoSpecId,
                    .arg = fifo.size() - 1, .unit = traceUnit});
    fifo.pop_front();
    // Reschedule before waking: a store sent from the wake then finds
    // the pump pending instead of starting a second chain.
    if (!fifo.empty())
        schedulePump(fifo.front().readyAt);
    wakeWaiters();
}

void
PersistPath::wakeWaiters()
{
    if (fifo.empty())
        emptyWaiters.wake();
    if (!full())
        spaceWaiters.wake();
}

} // namespace pmemspec::mem
