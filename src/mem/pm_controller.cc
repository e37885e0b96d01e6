#include "pm_controller.hh"

#include "common/logging.hh"

namespace pmemspec::mem
{

using persistency::Design;

PmController::PmController(sim::EventQueue &eq, StatGroup *parent,
                           const MemConfig &cfg_, Design design_,
                           std::string name)
    : sim::SimObject(std::move(name), eq, parent),
      cfg(cfg_),
      design(design_),
      banks(cfg_.pmBanks, 0),
      bloom(cfg_.bloomCounters, cfg_.bloomHashes)
{
    if (design == Design::PmemSpec) {
        specBuf.emplace(eq, &stats(), cfg.specBufferEntries,
                        cfg.effectiveSpecWindow());
    }
    stats().addCounter("reads", &reads, "PM device reads");
    stats().addCounter("writes", &writes, "PM device writes");
    stats().addCounter("writeCoalesces", &writeCoalesces,
                       "persists coalesced into a buffered block");
    stats().addCounter("droppedWritebacks", &droppedWritebacks,
                       "regular-path writebacks dropped by design");
    stats().addCounter("persistsAccepted", &persistsAccepted,
                       "persists accepted into the ADR domain");
    stats().addCounter("persistsRefused", &persistsRefused,
                       "persists refused on a full write queue");
    stats().addCounter("writeBacksRefused", &writeBacksRefused,
                       "writebacks refused on a full write queue");
    stats().addCounter("bloomTrueHits", &bloomTrueHits,
                       "PM reads delayed on a real buffer conflict");
    stats().addCounter("bloomFalsePositives", &bloomFalsePositives,
                       "PM reads delayed on a bloom false positive");
    stats().addAccumulator("readLatency", &readLatencyStat,
                           "PM read latency (ns), enqueue to data");
    stats().addAccumulator("admissionWait", &admissionWait,
                           "ns a refused write waited for a "
                           "write-queue slot");
}

SpeculationBuffer &
PmController::specBuffer()
{
    panic_if(!specBuf, "speculation buffer only exists for PMEM-Spec");
    return *specBuf;
}

void
PmController::setTraceManager(trace::Manager *mgr, std::uint16_t unit)
{
    traceMgr = mgr;
    traceUnit = unit;
    if (specBuf)
        specBuf->setTraceManager(mgr, unit);
}

Tick &
PmController::bankFree(Addr block_addr)
{
    return banks[blockNumber(block_addr) % banks.size()];
}

void
PmController::read(Addr block_addr, Waiter done)
{
    // A slot is free while it holds no continuation.
    panic_if(!done, "PM read without a continuation");
    std::uint32_t s = 0;
    while (s < readSlots.size() && readSlots[s].done)
        ++s;
    if (s == readSlots.size())
        readSlots.emplace_back();
    readSlots[s] = PendingRead{block_addr, curTick(), std::move(done)};

    if (design == Design::HOPS) {
        // Every PM read pays the bloom-filter lookup (Section 8.2.2).
        const Tick lookup = cfg.bloomLookupLatency;
        if (bloom.mayContain(block_addr)) {
            if (blocks.pendingPersists(block_addr) > 0) {
                // Real conflict: the block sits in a persist buffer.
                // HOPS postpones the read until the buffer drains it.
                ++bloomTrueHits;
                heldReads.add(block_addr, s);
                return;
            }
            // False positive: delay by the configured penalty.
            ++bloomFalsePositives;
            schedule(After{lookup + cfg.bloomFalsePositivePenalty},
                     [this, s] { serviceRead(s); });
            return;
        }
        schedule(After{lookup}, [this, s] { serviceRead(s); });
        return;
    }

    serviceRead(s);
}

void
PmController::serviceRead(std::uint32_t s)
{
    if (outstandingReads >= cfg.pmcReadQueue) {
        // Read queue full: finishRead admits the slot.
        readWaiters.add(s);
        return;
    }
    const Addr block_addr = readSlots[s].block;
    ++outstandingReads;
    ++reads;
    PMEMSPEC_TRACE(traceMgr, FlagPmController, trace::EventKind::PmcRead,
                   curTick(), trace::kNoCore, block_addr,
                   {.arg = outstandingReads, .unit = traceUnit});

    if (design == Design::PmemSpec)
        specBuf->read(block_addr);

    Tick &free_at = bankFree(block_addr);
    Tick start = std::max(curTick(), free_at);
    Tick done = start + cfg.pmReadLatency;
    free_at = done;
    schedule(After{done - curTick()}, [this, s] { finishRead(s); });
}

void
PmController::finishRead(std::uint32_t s)
{
    --outstandingReads;
    PendingRead &r = readSlots[s];
    readLatencyStat.sample(
        static_cast<double>(curTick() - r.enq) / ticksPerNs);
    Waiter done = std::move(r.done);
    if (!readWaiters.empty())
        serviceRead(readWaiters.pop());
    done();
}

bool
PmController::writeQueueFull(Addr block_addr) const
{
    return writeQueue >= cfg.pmcWriteQueue &&
           !blocks.coalescable(block_addr);
}

void
PmController::awaitAdmission(Waiter on_admit)
{
    admissions.add(Admission{curTick(), std::move(on_admit)});
}

void
PmController::retireWrite()
{
    panic_if(writeQueue == 0, "write queue underflow");
    --writeQueue;
    // An admitted write takes the freed slot, unless its block
    // coalesces into a queued write; then the next waiter may.
    while (writeQueue < cfg.pmcWriteQueue && !admissions.empty()) {
        Admission a = admissions.pop();
        admissionWait.sample(static_cast<double>(curTick() - a.since) /
                             ticksPerNs);
        a.admit();
    }
}

void
PmController::serviceWrite(Addr block_addr)
{
    // Coalesce into a queued (not yet started) write of this block:
    // the PMC buffers whole cache blocks, so another store to the
    // same block merges for free (Section 4.2). A coalesced store
    // consumes no extra write-queue entry.
    if (!blocks.markCoalescable(block_addr)) {
        ++writeCoalesces;
        return;
    }

    ++writeQueue;
    ++writes;
    // Writes drain in the background at the device's aggregate write
    // bandwidth; reads have priority and never queue behind them
    // (standard PMC scheduling -- ADR makes write *latency* invisible
    // to the program, only write-queue occupancy matters).
    Tick start = std::max(curTick(), writeServerFree);
    writeServerFree = start + cfg.pmWriteLatency / cfg.pmBanks;
    Tick done = start + cfg.pmWriteLatency;
    // The block stops being coalescable once its device write starts.
    schedule(After{start - curTick()},
               [this, block_addr] { blocks.clearCoalescable(block_addr); });
    schedule(After{done - curTick()}, [this] { retireWrite(); });
}

bool
PmController::writeBack(Addr block_addr)
{
    switch (design) {
      case Design::IntelX86:
        // Normal memory behaviour: the writeback enters the write
        // queue; ADR makes it durable at acceptance.
        if (writeQueueFull(block_addr)) {
            ++writeBacksRefused;
            return false;
        }
        serviceWrite(block_addr);
        return true;

      case Design::DPO:
      case Design::HOPS:
        // The persist buffers are the agents of persistence; dirty
        // LLC evictions are dropped (Section 2.2).
        ++droppedWritebacks;
        return true;

      case Design::PmemSpec:
        // Silently dropped -- but the WriteBack *request* is the
        // speculation buffer's monitoring trigger (Table 2).
        ++droppedWritebacks;
        PMEMSPEC_TRACE(traceMgr, FlagPmController,
                       trace::EventKind::PmcWriteBack, curTick(),
                       trace::kNoCore, block_addr,
                       {.arg = writeQueue, .unit = traceUnit});
        specBuf->writeBack(block_addr);
        return true;
    }
    panic("unhandled design");
}

bool
PmController::acceptPersist(CoreId core, Addr block_addr,
                            std::optional<SpecId> spec_id)
{
    (void)core; // only the trace points consume it today
    if (writeQueueFull(block_addr)) {
        ++persistsRefused;
        PMEMSPEC_TRACE(traceMgr, FlagPmController,
                       trace::EventKind::PmcPersistRefuse, curTick(),
                       core, block_addr,
                       {.specId = spec_id ? *spec_id : trace::kNoSpecId,
                        .unit = traceUnit});
        return false;
    }
    ++persistsAccepted;
    PMEMSPEC_TRACE(traceMgr, FlagPmController,
                   trace::EventKind::PmcPersistAccept, curTick(), core,
                   block_addr,
                   {.specId = spec_id ? *spec_id : trace::kNoSpecId,
                    .arg = writeQueue, .unit = traceUnit});
    serviceWrite(block_addr);
    if (design == Design::PmemSpec) {
        specBuf->persist(block_addr);
        if (spec_id)
            stepStoreOrder(blocks, eventQueue(), *specBuf, traceMgr,
                           traceUnit, block_addr, *spec_id,
                           cfg.effectiveSpecWindow());
    }
    return true;
}

void
stepStoreOrder(BlockTable &table, sim::EventQueue &eq,
               SpeculationBuffer &spec, trace::Manager *const &mgr,
               std::uint16_t unit, Addr block, SpecId id, Tick window)
{
    const auto r = table.specPersist(block, id, eq.now(), window);
    switch (r.step) {
      case BlockTable::SpecStep::Violation:
        // A store ordered *earlier* by the happens-before order
        // persisted after a later one: missing-update hazard.
        PMEMSPEC_TRACE(mgr, FlagPmController,
                       trace::EventKind::PmcStoreOrderViolation,
                       eq.now(), trace::kNoCore, block,
                       {.specId = id, .arg = r.prev, .unit = unit});
        spec.reportStoreMisspec(block);
        return;

      case BlockTable::SpecStep::Refreshed:
        return;

      case BlockTable::SpecStep::Inserted:
        // Bound the table: expire this entry after the window unless
        // it was refreshed (lazy sweep keyed on the insertion tick).
        eq.schedule(After{window + 1},
                    [&table, &eq, &mgr, unit, block, window] {
                        SpecId expired;
                        if (table.specExpire(block, eq.now(), window,
                                             &expired)) {
                            PMEMSPEC_TRACE(
                                mgr, FlagPmController,
                                trace::EventKind::PmcTrackExpire,
                                eq.now(), trace::kNoCore, block,
                                {.specId = expired, .unit = unit});
                        }
                    });
        return;
    }
}

void
PmController::filterInsert(Addr block_addr)
{
    bloom.insert(block_addr);
    blocks.persistBuffered(block_addr);
}

void
PmController::filterRemove(Addr block_addr)
{
    bloom.remove(block_addr);
    if (blocks.persistDrained(block_addr))
        heldReads.wake(block_addr,
                       [this](std::uint32_t s) { serviceRead(s); });
}

} // namespace pmemspec::mem
