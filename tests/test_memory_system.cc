/**
 * @file
 * Integration tests for the memory system: miss chains, MSHR merging,
 * coherence invalidation, design-specific eviction/flush handling.
 */

#include <gtest/gtest.h>

#include "mem/memory_system.hh"
#include "sim/event_queue.hh"

using namespace pmemspec;
using mem::MemConfig;
using mem::MemorySystem;
using persistency::Design;
using sim::EventQueue;

namespace
{

struct Harness
{
    EventQueue eq;
    StatGroup stats{"test"};
    MemorySystem mem;

    explicit Harness(Design d, MemConfig cfg = smallConfig())
        : mem(eq, &stats, cfg, d)
    {
    }

    static MemConfig
    smallConfig()
    {
        MemConfig cfg;
        cfg.numCores = 2;
        cfg.l1Bytes = 4 * 1024;
        cfg.llcBytes = 64 * 1024;
        return cfg;
    }

    Tick
    timeLoad(CoreId c, Addr a)
    {
        Tick done = ~Tick{0};
        mem.load(c, a, [&] { done = eq.now(); });
        eq.run();
        return done;
    }

    Tick
    timeStore(CoreId c, Addr a)
    {
        Tick done = ~Tick{0};
        mem.store(c, a, std::nullopt, [&] { done = eq.now(); });
        eq.run();
        return done;
    }
};

} // namespace

TEST(MemorySystem, ColdLoadTraversesTheWholeHierarchy)
{
    Harness h(Design::IntelX86);
    EXPECT_EQ(h.timeLoad(0, 0x10000), nsToTicks(2 + 20 + 175));
    EXPECT_EQ(h.mem.pmc().reads.value(), 1u);
}

TEST(MemorySystem, L1HitIsTwoNanoseconds)
{
    Harness h(Design::IntelX86);
    h.timeLoad(0, 0x10000);
    const Tick start = h.eq.now();
    EXPECT_EQ(h.timeLoad(0, 0x10000) - start, nsToTicks(2));
}

TEST(MemorySystem, LlcHitServesRemoteCoreMisses)
{
    Harness h(Design::IntelX86);
    h.timeLoad(0, 0x10000); // fills LLC
    const Tick start = h.eq.now();
    EXPECT_EQ(h.timeLoad(1, 0x10000) - start, nsToTicks(2 + 20));
    EXPECT_EQ(h.mem.pmc().reads.value(), 1u);
}

TEST(MemorySystem, MshrMergesConcurrentMisses)
{
    Harness h(Design::IntelX86);
    int done = 0;
    h.mem.load(0, 0x10000, [&] { ++done; });
    h.mem.load(0, 0x10000, [&] { ++done; });
    h.mem.load(0, 0x10008, [&] { ++done; }); // same block
    h.eq.run();
    EXPECT_EQ(done, 3);
    EXPECT_EQ(h.mem.pmc().reads.value(), 1u);
}

TEST(MemorySystem, StoreHitDirtiesL1)
{
    Harness h(Design::IntelX86);
    h.timeLoad(0, 0x10000);
    h.timeStore(0, 0x10000);
    EXPECT_TRUE(h.mem.l1(0).isDirty(blockAlign(0x10000)));
}

TEST(MemorySystem, StoreMissWriteAllocates)
{
    Harness h(Design::IntelX86);
    h.timeStore(0, 0x10000);
    EXPECT_TRUE(h.mem.l1(0).contains(blockAlign(0x10000)));
    EXPECT_EQ(h.mem.storeAllocFetches.value(), 1u);
}

TEST(MemorySystem, StoresInvalidateRemoteL1Copies)
{
    Harness h(Design::IntelX86);
    h.timeLoad(0, 0x10000);
    h.timeLoad(1, 0x10000);
    EXPECT_TRUE(h.mem.l1(1).contains(blockAlign(0x10000)));
    h.timeStore(0, 0x10000);
    EXPECT_FALSE(h.mem.l1(1).contains(blockAlign(0x10000)));
    EXPECT_EQ(h.mem.coherenceInvalidations.value(), 1u);
}

TEST(MemorySystem, PmemSpecStoresEnterThePersistPath)
{
    Harness h(Design::PmemSpec);
    h.timeStore(0, 0x10000);
    EXPECT_EQ(h.mem.path(0).sends.value(), 1u);
    EXPECT_EQ(h.mem.pmc().persistsAccepted.value(), 1u);
}

TEST(MemorySystem, BufferedStoresEnterThePersistBuffer)
{
    for (Design d : {Design::HOPS, Design::DPO}) {
        Harness h(d);
        h.timeStore(0, 0x10000);
        EXPECT_EQ(h.mem.pbuf(0).appends.value(), 1u);
    }
}

TEST(MemorySystem, IntelStoresBypassPersistMachinery)
{
    Harness h(Design::IntelX86);
    h.timeStore(0, 0x10000);
    EXPECT_EQ(h.mem.pmc().persistsAccepted.value(), 0u);
}

TEST(MemorySystem, ClwbFlushesDirtyBlockToPmc)
{
    Harness h(Design::IntelX86);
    h.timeStore(0, 0x10000);
    Tick done = 0;
    h.mem.clwb(0, 0x10000, [&] { done = h.eq.now(); });
    h.eq.run();
    EXPECT_GT(done, 0u);
    EXPECT_EQ(h.mem.pmc().writes.value(), 1u);
    EXPECT_FALSE(h.mem.l1(0).isDirty(blockAlign(0x10000)));
}

TEST(MemorySystem, RefusedClwbIsAckedOnceAdmitted)
{
    MemConfig cfg = Harness::smallConfig();
    cfg.pmcWriteQueue = 1;
    Harness h(Design::IntelX86, cfg);
    h.timeStore(0, 0x10000);
    h.timeStore(0, 0x20000);
    std::vector<Tick> acked;
    h.mem.clwb(0, 0x10000, [&] { acked.push_back(h.eq.now()); });
    h.mem.clwb(0, 0x20000, [&] { acked.push_back(h.eq.now()); });
    h.eq.run();
    // The second CLWB finds the one write-queue slot taken, waits for
    // the first write to retire (94ns), then is acked.
    ASSERT_EQ(acked.size(), 2u);
    EXPECT_EQ(acked[1] - acked[0], nsToTicks(94));
    EXPECT_EQ(h.mem.pmc().writes.value(), 2u);
    EXPECT_EQ(h.mem.pmc().admissionWait.samples(), 1u);
    EXPECT_DOUBLE_EQ(h.mem.pmc().admissionWait.max(), 94.0);
    EXPECT_EQ(h.mem.pmc().writeBacksRefused.value(), 1u);
    EXPECT_EQ(h.mem.pmc().persistsRefused.value(), 0u);
}

TEST(MemorySystem, ClwbOfCleanBlockIsCheap)
{
    Harness h(Design::IntelX86);
    h.timeLoad(0, 0x10000);
    Tick start = h.eq.now();
    Tick done = 0;
    h.mem.clwb(0, 0x10000, [&] { done = h.eq.now(); });
    h.eq.run();
    EXPECT_EQ(done - start, nsToTicks(2));
    EXPECT_EQ(h.mem.pmc().writes.value(), 0u);
}

TEST(MemorySystem, DpoClwbIsANoop)
{
    Harness h(Design::DPO);
    h.timeStore(0, 0x10000);
    h.mem.clwb(0, 0x10000, [] {});
    h.eq.run();
    EXPECT_EQ(h.mem.pmc().writes.value(),
              h.mem.pbuf(0).persistsDone.value());
}

TEST(MemorySystem, SpecBarrierCompletesAfterPathDrain)
{
    Harness h(Design::PmemSpec);
    h.timeStore(0, 0x10000);
    Tick done = 0;
    h.mem.persistBarrier(0, [&] { done = h.eq.now(); });
    h.eq.run();
    EXPECT_GT(done, 0u);
    EXPECT_TRUE(h.mem.path(0).empty());
}

TEST(MemorySystem, LlcEvictionsDroppedUnderPmemSpec)
{
    // Thrash a small LLC with dirty blocks; evictions must be dropped
    // (no PMC writes) but reported to the speculation buffer.
    MemConfig cfg = Harness::smallConfig();
    cfg.llcBytes = 2 * 1024; // 32 blocks
    cfg.l1Bytes = 1024;      // 16 blocks
    Harness h(Design::PmemSpec, cfg);
    for (Addr a = 0; a < 64; ++a)
        h.timeStore(0, 0x10000 + a * 64);
    EXPECT_GT(h.mem.pmc().droppedWritebacks.value(), 0u);
    // Every PMC write came from the persist path, not evictions.
    EXPECT_EQ(h.mem.pmc().writes.value() +
                  h.mem.pmc().writeCoalesces.value(),
              h.mem.pmc().persistsAccepted.value());
}

TEST(MemorySystem, IntelLlcEvictionsWriteBack)
{
    MemConfig cfg = Harness::smallConfig();
    cfg.llcBytes = 2 * 1024;
    cfg.l1Bytes = 1024;
    Harness h(Design::IntelX86, cfg);
    for (Addr a = 0; a < 64; ++a)
        h.timeStore(0, 0x10000 + a * 64);
    EXPECT_GT(h.mem.pmc().writes.value(), 0u);
    EXPECT_EQ(h.mem.pmc().droppedWritebacks.value(), 0u);
}

TEST(MemorySystem, LockWatermarksCreateBufferDependencies)
{
    Harness h(Design::HOPS);
    // Core 0 buffers a store, releases a lock; core 1 acquires and
    // buffers its own store: core 1's drain must follow core 0's.
    h.mem.store(0, 0x10000, std::nullopt, [] {});
    h.mem.onLockRelease(0, 7);
    h.mem.onLockAcquire(1, 7);
    h.mem.store(1, 0x20000, std::nullopt, [] {});
    h.eq.run();
    // Both drained; no deadlock, and the dependency was recorded
    // (depStalls may be zero if timing already satisfied it).
    EXPECT_EQ(h.mem.pbuf(0).persistsDone.value(), 1u);
    EXPECT_EQ(h.mem.pbuf(1).persistsDone.value(), 1u);
}

TEST(MemorySystem, HopsStickyMExtraLatency)
{
    MemConfig cfg = Harness::smallConfig();
    cfg.l1ToLlcExtra = nsToTicks(1);
    Harness h(Design::HOPS, cfg);
    EXPECT_EQ(h.timeLoad(0, 0x10000),
              nsToTicks(2 + 1 + 20) + cfg.bloomLookupLatency +
                  nsToTicks(175));
}
