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
      fifoCapacity(capacity),
      deliver(std::move(deliver_fn))
{
    fatal_if(capacity == 0, "persist path capacity must be >= 1");
    stats().addCounter("sends", &sends, "persists pushed onto the path");
    stats().addCounter("deliveries", &deliveries,
                       "persists accepted by the PMC");
    stats().addCounter("pathRetries", &pathRetries,
                       "delivery retries due to PMC backpressure");
    stats().addAccumulator("occupancy", &occupancyStat,
                           "FIFO occupancy sampled at each send");
    stats().addHistogram("occupancyDist", &occupancyHist,
                         "FIFO occupancy distribution at each send");
}

void
PersistPath::send(Addr block_addr, std::optional<SpecId> spec_id)
{
    panic_if(full(), "persist path overflow; the store queue must "
                     "apply backpressure via full()");
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
    if (!pumpScheduled) {
        pumpScheduled = true;
        schedule(After{arrival - curTick()}, [this] { pump(); });
    }
}

void
PersistPath::pump()
{
    pumpScheduled = false;
    if (fifo.empty())
        return;

    Flit &head = fifo.front();
    if (head.readyAt > curTick()) {
        pumpScheduled = true;
        schedule(After{head.readyAt - curTick()}, [this] { pump(); });
        return;
    }

    if (deliver(coreId, head.addr, head.specId)) {
        ++deliveries;
        pmcBackoff.reset();
        PMEMSPEC_TRACE(traceMgr, FlagPersistPath,
                       trace::EventKind::PathDeliver, curTick(), coreId,
                       head.addr,
                       {.specId = head.specId ? *head.specId
                                              : trace::kNoSpecId,
                        .arg = fifo.size() - 1, .unit = traceUnit});
        fifo.pop_front();
        wakeWaiters();
        if (!fifo.empty()) {
            pumpScheduled = true;
            Tick delay = fifo.front().readyAt > curTick()
                             ? fifo.front().readyAt - curTick()
                             : 0;
            schedule(After{delay}, [this] { pump(); });
        }
    } else {
        // PMC write queue full: retry on the shared bounded-backoff
        // schedule, preserving order.
        ++pathRetries;
        PMEMSPEC_TRACE(traceMgr, FlagPersistPath,
                       trace::EventKind::PathRetry, curTick(), coreId,
                       head.addr, {.unit = traceUnit});
        pumpScheduled = true;
        schedule(After{pmcBackoff.next()}, [this] { pump(); });
    }
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
