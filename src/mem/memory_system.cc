#include "memory_system.hh"

#include <memory>

#include "common/logging.hh"

namespace pmemspec::mem
{

using persistency::Design;

MemorySystem::MemorySystem(sim::EventQueue &eq, StatGroup *parent,
                           const MemConfig &cfg_, Design design_)
    : sim::SimObject("memsys", eq, parent),
      cfg(cfg_),
      dsgn(design_),
      l1Mshrs(cfg_.numCores),
      stalledStores(cfg_.numCores),
      barriers(cfg_.numCores)
{
    fatal_if(cfg.numPmcs == 0, "need at least one PM controller");
    stats().addCounter("coherenceInvalidations", &coherenceInvalidations,
                       "remote L1 invalidations on store drains");
    stats().addCounter("storeAllocFetches", &storeAllocFetches,
                       "write-allocate fetches triggered by stores");
    stats().addCounter("crossPmcReorderHazards", &crossPmcReorderHazards,
                       "per-core persists arriving across controllers "
                       "out of store order (Section 7 oracle)");

    for (CoreId c = 0; c < cfg.numCores; ++c) {
        l1s.push_back(std::make_unique<SetAssocCache>(
            "l1d" + std::to_string(c), cfg.l1Bytes, cfg.l1Ways));
    }
    l1DirEnabled = cfg.numCores <= 64;
    sharedLlc = std::make_unique<SetAssocCache>("llc", cfg.llcBytes,
                                                cfg.llcWays);
    for (unsigned i = 0; i < cfg.numPmcs; ++i) {
        pmControllers.push_back(std::make_unique<PmController>(
            eq, &stats(), cfg, dsgn,
            i == 0 ? "pmc" : "pmc" + std::to_string(i)));
    }

    if (dsgn == Design::PmemSpec) {
        // One lane per core with an ordered NoC (the Section 7
        // extension serialises a core's persists across controllers);
        // one independent lane per controller otherwise.
        pathLanes = (cfg.numPmcs > 1 && !cfg.orderedNoc)
                        ? cfg.numPmcs
                        : 1;
        persistSeqCounter.assign(cfg.numCores, 0);
        laneSeqs.assign(std::size_t{cfg.numCores} * pathLanes, {});
        outstandingSeqs.assign(cfg.numCores, {});
        for (CoreId c = 0; c < cfg.numCores; ++c) {
            for (unsigned lane = 0; lane < pathLanes; ++lane) {
                const Tick lat =
                    cfg.persistPathLatency + lane * cfg.nocSkew;
                const std::size_t lane_idx =
                    std::size_t{c} * pathLanes + lane;
                paths.push_back(std::make_unique<PersistPath>(
                    eq, &stats(), c, lat, cfg.persistPathCapacity,
                    [this, lane_idx](CoreId core, Addr a,
                                     std::optional<SpecId> s,
                                     Waiter &on_admit) {
                        PmController &pmc = pmcFor(a);
                        if (!pmc.acceptPersist(core, a, s)) {
                            pmc.awaitAdmission(std::move(on_admit));
                            return false;
                        }
                        if (pathLanes > 1) {
                            auto &fifo = laneSeqs[lane_idx];
                            recordPersistArrival(core, fifo.front());
                            fifo.pop_front();
                        }
                        return true;
                    }));
            }
        }
    }

    if (usesPersistBuffers(dsgn)) {
        const bool strict = (dsgn == Design::DPO);
        for (CoreId c = 0; c < cfg.numCores; ++c) {
            pbufs.push_back(std::make_unique<PersistBuffer>(
                eq, &stats(), c, cfg.persistPathLatency,
                cfg.persistBufferEntries, cfg.persistBufferDrainWidth,
                strict, strict ? &dpoToken : nullptr,
                [this](CoreId core, Addr a, Waiter &on_admit) {
                    PmController &pmc = pmcFor(a);
                    if (pmc.acceptPersist(core, a, std::nullopt))
                        return true;
                    pmc.awaitAdmission(std::move(on_admit));
                    return false;
                }));
        }
        if (dsgn == Design::HOPS) {
            for (auto &pb : pbufs) {
                pb->setFilterHooks(
                    [this](Addr a) { pmcFor(a).filterInsert(a); },
                    [this](Addr a) { pmcFor(a).filterRemove(a); });
            }
        }
        // Cross-buffer dependencies can clear whenever any buffer
        // makes progress; re-pump everyone.
        for (auto &pb : pbufs) {
            pb->setProgressHook([this] {
                for (auto &other : pbufs)
                    other->pump();
            });
        }
    }
}

unsigned
MemorySystem::pmcIndexFor(Addr block) const
{
    return static_cast<unsigned>(blockNumber(block) %
                                 pmControllers.size());
}

PmController &
MemorySystem::pmcFor(Addr block)
{
    return *pmControllers[pmcIndexFor(block)];
}

void
MemorySystem::recordPersistArrival(CoreId c, std::uint64_t seq)
{
    auto &outstanding = outstandingSeqs[c];
    auto it = outstanding.find(seq);
    panic_if(it == outstanding.end(), "unknown persist sequence");
    if (it != outstanding.begin()) {
        // An older persist of this core is still in flight on another
        // lane: the store order was violated across controllers.
        ++crossPmcReorderHazards;
    }
    outstanding.erase(it);
}

void
MemorySystem::invalidateOtherL1s(CoreId c, Addr block)
{
    if (!l1DirEnabled) {
        for (CoreId o = 0; o < cfg.numCores; ++o) {
            if (o == c)
                continue;
            if (l1s[o]->invalidate(block))
                ++coherenceInvalidations;
        }
        return;
    }
    std::uint64_t mask =
        l1Dir.get(block) & ~(std::uint64_t{1} << c);
    while (mask) {
        const auto o = static_cast<CoreId>(__builtin_ctzll(mask));
        mask &= mask - 1;
        if (l1s[o]->invalidate(block))
            ++coherenceInvalidations;
        l1Dir.clearBit(block, o);
    }
}

void
MemorySystem::handleLlcEviction(const Eviction &ev)
{
    if (!ev.dirty)
        return;
    // Design-specific: IntelX86 writes back; the buffered designs and
    // PMEM-Spec drop the data (PMEM-Spec notifies its spec buffer).
    writeBack(ev.blockAddr, nullptr);
}

void
MemorySystem::fillL1(CoreId c, Addr block, bool dirty)
{
    // Mostly-inclusive: the LLC receives the block alongside the L1.
    if (auto llc_ev = sharedLlc->insert(block, false))
        handleLlcEviction(*llc_ev);
    if (auto l1_ev = l1s[c]->insert(block, dirty)) {
        l1Dir.clearBit(l1_ev->blockAddr, c);
        if (l1_ev->dirty) {
            // Dirty L1 victim migrates into the LLC.
            if (sharedLlc->contains(l1_ev->blockAddr)) {
                sharedLlc->markDirty(l1_ev->blockAddr);
            } else if (auto llc_ev = sharedLlc->insert(l1_ev->blockAddr,
                                                       true)) {
                handleLlcEviction(*llc_ev);
            }
        }
    }
    l1Dir.setBit(block, c);
}

void
MemorySystem::joinL1Miss(CoreId c, Addr block, bool for_store, Done done)
{
    if (l1Mshrs[c].add(block, L1Waiter{std::move(done), for_store}))
        missToLlc(c, block);
}

void
MemorySystem::missToLlc(CoreId c, Addr block)
{
    Tick llc_lat = cfg.llcHitLatency + cfg.l1ToLlcExtra;
    schedule(After{llc_lat}, [this, c, block] {
        if (sharedLlc->access(block)) {
            fillL1(c, block, false);
            finishL1Miss(c, block);
        } else {
            fillFromPm(c, block);
        }
    });
}

void
MemorySystem::fillFromPm(CoreId c, Addr block)
{
    if (!llcMshrs.add(block, c))
        return;
    pmcFor(block).read(block, [this, c, block] {
        fillL1(c, block, false);
        const bool any = llcMshrs.wake(
            block, [&](CoreId waiter) { finishL1Miss(waiter, block); });
        panic_if(!any, "LLC MSHR vanished for block");
    });
}

void
MemorySystem::finishL1Miss(CoreId c, Addr block)
{
    const bool any = l1Mshrs[c].wake(block, [&](L1Waiter &w) {
        if (w.forStore) {
            if (l1s[c]->contains(block))
                l1s[c]->markDirty(block);
            else
                fillL1(c, block, true);
        }
        w.done();
    });
    panic_if(!any, "L1 MSHR vanished for block");
}

void
MemorySystem::load(CoreId c, Addr addr, Done on_done)
{
    const Addr block = blockAlign(addr);
    schedule(After{cfg.l1HitLatency},
             [this, c, block, cb = std::move(on_done)]() mutable {
                 if (l1s[c]->access(block))
                     cb();
                 else
                     joinL1Miss(c, block, false, std::move(cb));
             });
}

bool
MemorySystem::captureStore(CoreId c, Addr block,
                           std::optional<SpecId> spec_id)
{
    // Backpressure: the store waits in its core's stalled-store slot
    // and retries once the path or buffer has room.
    auto retry = [this, c] {
        StalledStore &s = stalledStores[c];
        if (captureStore(c, s.block, s.specId))
            writeL1(c, s.block, std::move(s.done));
    };
    switch (dsgn) {
      case Design::IntelX86:
        return true;
      case Design::PmemSpec: {
        const unsigned lane =
            (pathLanes > 1) ? pmcIndexFor(block) : 0;
        PersistPath &p = path(c, lane);
        if (p.full()) {
            p.notifyWhenNotFull(retry);
            return false;
        }
        if (pathLanes > 1) {
            const std::uint64_t seq = persistSeqCounter[c]++;
            laneSeqs[std::size_t{c} * pathLanes + lane].push_back(seq);
            outstandingSeqs[c].emplace(seq, true);
        }
        p.send(block, spec_id);
        return true;
      }
      case Design::DPO:
      case Design::HOPS: {
        PersistBuffer &pb = *pbufs[c];
        if (pb.full()) {
            pb.notifyWhenNotFull(retry);
            return false;
        }
        pb.append(block);
        return true;
      }
    }
    panic("unhandled design");
}

void
MemorySystem::store(CoreId c, Addr addr, std::optional<SpecId> spec_id,
                    Done on_done)
{
    const Addr block = blockAlign(addr);
    // "PMEM-Spec sends PM data being stored to both the CPU caches and
    // the persist-path simultaneously when they leave the store queue"
    // (Section 4.2); the buffered designs capture at the same point.
    if (captureStore(c, block, spec_id)) {
        writeL1(c, block, std::move(on_done));
        return;
    }
    StalledStore &s = stalledStores[c];
    panic_if(s.done, "core %u drained a second store while one "
                           "was stalled", c);
    s = StalledStore{block, spec_id, std::move(on_done)};
}

void
MemorySystem::writeL1(CoreId c, Addr block, Done on_done)
{
    schedule(After{cfg.l1HitLatency},
             [this, c, block, cb = std::move(on_done)]() mutable {
                 invalidateOtherL1s(c, block);
                 if (l1s[c]->write(block)) {
                     cb();
                     return;
                 }
                 // Write-allocate: fetch the block; the fill dirties it.
                 ++storeAllocFetches;
                 joinL1Miss(c, block, true, std::move(cb));
             });
}

void
MemorySystem::clwb(CoreId c, Addr addr, Done on_done)
{
    const Addr block = blockAlign(addr);
    schedule(After{cfg.l1HitLatency}, [this, c, block,
                                       cb = std::move(on_done)]() mutable {
        if (dsgn == Design::DPO) {
            // DPO's persist buffers already captured the stores; the
            // CLWB microcode completes without touching PM.
            cb();
            return;
        }
        const bool l1_dirty =
            l1s[c]->contains(block) && l1s[c]->isDirty(block);
        const bool llc_dirty =
            sharedLlc->contains(block) && sharedLlc->isDirty(block);
        if (!l1_dirty && !llc_dirty) {
            cb(); // nothing to flush
            return;
        }
        l1s[c]->markClean(block);
        sharedLlc->markClean(block);
        // Transport to the PMC, acceptance into the ADR domain, then
        // the completion acknowledgment travelling back to the core
        // (what a following SFENCE actually waits for).
        schedule(After{cfg.l1ToPmcLatency},
                 [this, block, cb = std::move(cb)]() mutable {
                     writeBack(block, std::move(cb));
                 });
    });
}

void
MemorySystem::writeBack(Addr block, Done acked)
{
    PmController &pmc = pmcFor(block);
    if (pmc.writeBack(block)) {
        if (acked)
            schedule(After{cfg.l1ToPmcLatency}, std::move(acked));
        return;
    }
    // Write queue full: park the writeback until the PMC admits it.
    std::uint32_t s = 0;
    while (s < parkedWriteBacks.size() && parkedWriteBacks[s].waiting)
        ++s;
    if (s == parkedWriteBacks.size())
        parkedWriteBacks.emplace_back();
    parkedWriteBacks[s] = ParkedWriteBack{block, std::move(acked), true};
    pmc.awaitAdmission([this, s] {
        ParkedWriteBack &w = parkedWriteBacks[s];
        w.waiting = false;
        writeBack(w.block, std::move(w.acked));
    });
}

void
MemorySystem::persistBarrier(CoreId c, Done on_done)
{
    panic_if(dsgn == Design::IntelX86, "IntelX86 has no persist barrier");
    Barrier &b = barriers[c];
    panic_if(b.done, "core %u has a barrier in flight", c);
    b.done = std::move(on_done);
    auto part_done = [this, c] { barrierPartDone(c); };
    if (dsgn == Design::PmemSpec) {
        b.partsLeft = pathLanes;
        for (unsigned lane = 0; lane < pathLanes; ++lane)
            path(c, lane).notifyWhenEmpty(part_done);
    } else {
        b.partsLeft = 1;
        pbufs[c]->notifyWhenEmpty(part_done);
    }
}

void
MemorySystem::barrierPartDone(CoreId c)
{
    // The core learns that its persists reached the PM controller(s)
    // through small acks on the regular on-chip network (the persist
    // path itself is write-only), one transport delay after the last
    // arrival, across every lane.
    Barrier &b = barriers[c];
    if (--b.partsLeft == 0)
        schedule(After{cfg.l1ToPmcLatency}, std::move(b.done));
}

void
MemorySystem::ofence(CoreId c)
{
    panic_if(!usesPersistBuffers(dsgn),
             "ofence requires persist buffers");
    pbufs[c]->ofence();
}

void
MemorySystem::onLockRelease(CoreId c, unsigned lock_id)
{
    if (!usesPersistBuffers(dsgn))
        return;
    // Watermark: everything core c buffered before this release must
    // be durable before the next acquirer's later persists drain.
    lockWatermarks[lock_id] = LockWatermark{c, pbufs[c]->nextSeq()};
}

void
MemorySystem::onLockAcquire(CoreId c, unsigned lock_id)
{
    if (!usesPersistBuffers(dsgn))
        return;
    auto it = lockWatermarks.find(lock_id);
    if (it == lockWatermarks.end())
        return;
    const LockWatermark &wm = it->second;
    if (wm.releaser == c)
        return;
    pbufs[c]->addDependency(pbufs[wm.releaser].get(), wm.seq);
}

} // namespace pmemspec::mem
