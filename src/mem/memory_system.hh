/**
 * @file
 * The full memory system: per-core L1s, a shared LLC, the PM
 * controller, and the design-specific persistence plumbing
 * (persist-paths for PMEM-Spec, persist buffers for HOPS/DPO).
 *
 * The hierarchy is mostly-inclusive write-back/write-allocate with a
 * simple invalidation-based coherence model: a store drain invalidates
 * the block in every other L1. Requests are latency-chained through
 * the event queue; MSHRs merge concurrent misses to the same block at
 * both levels.
 *
 * A request's continuation is never wrapped in another callback: it
 * waits in one place at a time -- the event carrying it, an L1 MSHR
 * entry, its core's stalled-store or barrier slot, or the parked
 * writeback slot of a CLWB waiting for PMC admission.
 */

#ifndef PMEMSPEC_MEM_MEMORY_SYSTEM_HH
#define PMEMSPEC_MEM_MEMORY_SYSTEM_HH

#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "common/inplace_fn.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "common/waiter_list.hh"
#include "mem/cache.hh"
#include "mem/mem_config.hh"
#include "mem/persist_buffer.hh"
#include "mem/persist_path.hh"
#include "mem/pm_controller.hh"
#include "mem/sharer_directory.hh"
#include "persistency/design.hh"
#include "sim/sim_object.hh"

namespace pmemspec::mem
{

/** Top-level memory system facade used by the cores. */
class MemorySystem : public sim::SimObject
{
  public:
    /** A request's completion continuation. */
    using Done = InplaceFn<void()>;

    MemorySystem(sim::EventQueue &eq, StatGroup *parent,
                 const MemConfig &cfg, persistency::Design design);

    /** A demand load from core c; on_done fires when data is ready. */
    void load(CoreId c, Addr addr, Done on_done);

    /**
     * Drain one committed store from core c's store queue into the
     * hierarchy and, per design, capture it for persistence
     * (persist-path send or persist-buffer append). on_done fires when
     * the store has fully left the store queue; persistence capture
     * applies backpressure through it. A core drains one store at a
     * time.
     */
    void store(CoreId c, Addr addr, std::optional<SpecId> spec_id,
               Done on_done);

    /** CLWB: flush the block towards the PMC; on_done fires when the
     *  flush is accepted into the persistent domain. */
    void clwb(CoreId c, Addr addr, Done on_done);

    /** The design's durability barrier: on_done once core c's
     *  persist-path lanes (PMEM-Spec spec-barrier) or persist buffer
     *  (HOPS/DPO dfence) are empty and acked. A core has one barrier
     *  in flight. */
    void persistBarrier(CoreId c, Done on_done);

    /** ofence: close core c's current persist-buffer epoch. */
    void ofence(CoreId c);

    /** Lock-handoff hooks conveying inter-thread persist order. */
    void onLockRelease(CoreId c, unsigned lock_id);
    void onLockAcquire(CoreId c, unsigned lock_id);

    persistency::Design design() const { return dsgn; }
    const MemConfig &config() const { return cfg; }

    /** The (first) PM controller. */
    PmController &pmc() { return *pmControllers.front(); }
    /** Controller i of the Section 7 multi-PMC extension. */
    PmController &pmc(unsigned i) { return *pmControllers.at(i); }
    unsigned numPmcs() const
    {
        return static_cast<unsigned>(pmControllers.size());
    }
    /** Controller owning a block (address-interleaved). */
    PmController &pmcFor(Addr block);
    unsigned pmcIndexFor(Addr block) const;

    SetAssocCache &l1(CoreId c) { return *l1s.at(c); }
    SetAssocCache &llc() { return *sharedLlc; }
    /** Core c's persist-path lane towards controller `pmc_idx` (the
     *  single path when numPmcs == 1 or the NoC is ordered). */
    PersistPath &path(CoreId c, unsigned pmc_idx = 0)
    {
        return *paths.at(c * pathLanes + pmc_idx % pathLanes);
    }
    PersistBuffer &pbuf(CoreId c) { return *pbufs.at(c); }

    /** Flat persist-path enumeration (metrics gauges). */
    std::size_t numPaths() const { return paths.size(); }
    PersistPath &pathAt(std::size_t i) { return *paths.at(i); }

    /** Attach the machine's event recorder to every PMC (unit: PMC
     *  index, cascading to its speculation buffer) and persist-path
     *  lane (unit: lane index within the core's bundle). */
    void setTraceManager(trace::Manager *mgr)
    {
        for (unsigned i = 0; i < pmControllers.size(); ++i)
            pmControllers[i]->setTraceManager(
                mgr, static_cast<std::uint16_t>(i));
        for (unsigned i = 0; i < paths.size(); ++i)
            paths[i]->setTraceManager(
                mgr, static_cast<std::uint16_t>(i % pathLanes));
    }

    Counter coherenceInvalidations;
    Counter storeAllocFetches;
    /** Section 7 oracle: a core's persists arrived at different
     *  controllers out of store order -- a violation the hardware
     *  cannot detect without an ordered NoC. */
    Counter crossPmcReorderHazards;

  private:
    /** A request on an L1 miss; a store's fill dirties the block. */
    struct L1Waiter
    {
        Done done;
        bool forStore;
    };
    /** A store held back by persistence backpressure. */
    struct StalledStore
    {
        Addr block = 0;
        std::optional<SpecId> specId;
        Done done;
    };
    /** A writeback refused on a full write queue, waiting for PMC
     *  admission; `acked` is a CLWB's ack (none for an eviction). */
    struct ParkedWriteBack
    {
        Addr block = 0;
        Done acked;
        bool waiting = false;
    };
    /** A persist barrier: lanes / buffers not yet seen empty. */
    struct Barrier
    {
        unsigned partsLeft = 0;
        Done done;
    };

    void joinL1Miss(CoreId c, Addr block, bool for_store, Done done);
    void missToLlc(CoreId c, Addr block);
    void fillFromPm(CoreId c, Addr block);
    void finishL1Miss(CoreId c, Addr block);
    /** Install a block into core c's L1 (and the LLC), handling
     *  evictions at both levels. */
    void fillL1(CoreId c, Addr block, bool dirty);
    void handleLlcEviction(const Eviction &ev);
    void invalidateOtherL1s(CoreId c, Addr block);

    /** Per-design persistence capture of a committed store; false on
     *  backpressure. */
    bool captureStore(CoreId c, Addr block,
                      std::optional<SpecId> spec_id);
    /** A captured store's L1 write (write-allocate on a miss). */
    void writeL1(CoreId c, Addr block, Done on_done);
    /** Offer a writeback to its PMC, parking it until admitted on a
     *  full write queue; once accepted, schedule `acked` (if set) one
     *  transport delay later. */
    void writeBack(Addr block, Done acked);
    void barrierPartDone(CoreId c);

    /** Oracle bookkeeping for the multi-PMC hazard counter. */
    void recordPersistArrival(CoreId c, std::uint64_t seq);

    MemConfig cfg;
    persistency::Design dsgn;

    std::vector<std::unique_ptr<SetAssocCache>> l1s;
    /** Exact L1-sharer bitmasks so store-drain invalidations only
     *  probe cores that actually hold the block. Disabled (empty
     *  broadcast fallback) beyond 64 cores. */
    SharerDirectory l1Dir;
    bool l1DirEnabled = true;
    std::unique_ptr<SetAssocCache> sharedLlc;
    std::vector<std::unique_ptr<PmController>> pmControllers;
    /** Persist-path lanes: paths[c * pathLanes + lane]. */
    std::vector<std::unique_ptr<PersistPath>> paths;
    unsigned pathLanes = 1;
    std::vector<std::unique_ptr<PersistBuffer>> pbufs;
    GlobalDrainToken dpoToken;

    /** Per-core persist sequence stamps (send order) and the set of
     *  not-yet-arrived sequences, for the reorder oracle. */
    std::vector<std::uint64_t> persistSeqCounter;
    /** Per (core, lane): FIFO of sequence stamps in flight. */
    std::vector<std::deque<std::uint64_t>> laneSeqs;
    /** Per core: smallest not-yet-arrived sequence heap substitute. */
    std::vector<std::map<std::uint64_t, bool>> outstandingSeqs;

    /** Per-core L1 MSHRs; the LLC's hold the cores whose L1 misses
     *  wait on a PM fill, the first of which receives the block. */
    std::vector<BlockWaiters<L1Waiter>> l1Mshrs;
    BlockWaiters<CoreId> llcMshrs;
    /** Per core: its stalled store and its barrier in flight. */
    std::vector<StalledStore> stalledStores;
    std::vector<Barrier> barriers;
    /** Writebacks waiting for PMC admission; a slot not waiting is
     *  free. */
    std::vector<ParkedWriteBack> parkedWriteBacks;

    /** Lock watermarks for persist-buffer dependencies. */
    struct LockWatermark
    {
        CoreId releaser;
        std::uint64_t seq;
    };
    std::map<unsigned, LockWatermark> lockWatermarks;
};

} // namespace pmemspec::mem

#endif // PMEMSPEC_MEM_MEMORY_SYSTEM_HH
