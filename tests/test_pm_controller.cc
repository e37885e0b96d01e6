/**
 * @file
 * Unit tests for the PM controller: device timing, write coalescing,
 * design-specific writeback handling, the HOPS bloom filter path, and
 * the spec-ID store-order check.
 */

#include <gtest/gtest.h>

#include <vector>

#include "mem/pm_controller.hh"
#include "sim/event_queue.hh"

using namespace pmemspec;
using mem::MemConfig;
using mem::PmController;
using persistency::Design;
using sim::EventQueue;

namespace
{

struct Harness
{
    EventQueue eq;
    StatGroup stats{"test"};
    MemConfig cfg;
    PmController pmc;

    explicit Harness(Design d, MemConfig c = MemConfig{})
        : cfg(c), pmc(eq, &stats, cfg, d)
    {
    }
};

} // namespace

TEST(PmController, ReadTakesDeviceLatency)
{
    Harness h(Design::IntelX86);
    Tick done = 0;
    h.pmc.read(0x1000, [&] { done = h.eq.now(); });
    h.eq.run();
    EXPECT_EQ(done, nsToTicks(175));
    EXPECT_EQ(h.pmc.reads.value(), 1u);
}

TEST(PmController, SameBankReadsSerialise)
{
    Harness h(Design::IntelX86);
    std::vector<Tick> done;
    // Same block -> same bank.
    h.pmc.read(0x1000, [&] { done.push_back(h.eq.now()); });
    h.pmc.read(0x1000, [&] { done.push_back(h.eq.now()); });
    h.eq.run();
    ASSERT_EQ(done.size(), 2u);
    EXPECT_EQ(done[0], nsToTicks(175));
    EXPECT_EQ(done[1], nsToTicks(350));
}

TEST(PmController, DifferentBanksOverlap)
{
    Harness h(Design::IntelX86);
    std::vector<Tick> done;
    h.pmc.read(0, [&] { done.push_back(h.eq.now()); });
    // Next block -> next bank.
    h.pmc.read(64, [&] { done.push_back(h.eq.now()); });
    h.eq.run();
    ASSERT_EQ(done.size(), 2u);
    EXPECT_EQ(done[0], nsToTicks(175));
    EXPECT_EQ(done[1], nsToTicks(175));
}

TEST(PmController, FullReadQueueWaitsForAFinishingRead)
{
    MemConfig cfg;
    cfg.pmBanks = 64; // every read below has its own bank
    Harness h(Design::IntelX86, cfg);
    std::vector<Tick> done;
    for (unsigned i = 0; i <= cfg.pmcReadQueue; ++i)
        h.pmc.read(Addr{i} * 64, [&] { done.push_back(h.eq.now()); });
    // The last read waits for a slot with no event of its own.
    EXPECT_EQ(h.pmc.reads.value(), cfg.pmcReadQueue);
    EXPECT_EQ(h.eq.pending(), std::size_t{cfg.pmcReadQueue});
    h.eq.run();
    ASSERT_EQ(done.size(), cfg.pmcReadQueue + 1u);
    EXPECT_EQ(done.front(), nsToTicks(175));
    // It starts the tick the first read finishes.
    EXPECT_EQ(done.back(), nsToTicks(175) + nsToTicks(175));
}

TEST(PmController, IntelWritebackEntersWriteQueue)
{
    Harness h(Design::IntelX86);
    EXPECT_TRUE(h.pmc.writeBack(0x1000)); // ADR: durable at acceptance
    EXPECT_EQ(h.pmc.writes.value(), 1u);
    h.eq.run();
    EXPECT_EQ(h.pmc.writeQueueOccupancy(), 0u);
}

TEST(PmController, BufferedDesignsDropWritebacks)
{
    for (Design d : {Design::HOPS, Design::DPO}) {
        Harness h(d);
        EXPECT_TRUE(h.pmc.writeBack(0x1000));
        EXPECT_EQ(h.pmc.droppedWritebacks.value(), 1u);
        EXPECT_EQ(h.pmc.writes.value(), 0u);
    }
}

TEST(PmController, PmemSpecWritebackFeedsSpecBuffer)
{
    Harness h(Design::PmemSpec);
    h.pmc.writeBack(0x1000);
    EXPECT_EQ(h.pmc.droppedWritebacks.value(), 1u);
    EXPECT_EQ(h.pmc.specBuffer().occupancy(), 1u);
    EXPECT_EQ(h.pmc.specBuffer().stateOf(0x1000),
              mem::SpecState::Evict);
}

TEST(PmController, IntelWritebackRefusedOnAFullWriteQueue)
{
    MemConfig cfg;
    cfg.pmcWriteQueue = 1;
    Harness h(Design::IntelX86, cfg);
    EXPECT_TRUE(h.pmc.writeBack(0 * 64));
    EXPECT_TRUE(h.pmc.writeBack(0 * 64)); // coalesces into the queued one
    EXPECT_FALSE(h.pmc.writeBack(1 * 64));
    h.eq.run(); // queue drains
    EXPECT_TRUE(h.pmc.writeBack(1 * 64));
}

TEST(PmController, AcceptPersistWritesAndCoalesces)
{
    Harness h(Design::PmemSpec);
    EXPECT_TRUE(h.pmc.acceptPersist(0, 0x1000, std::nullopt));
    EXPECT_TRUE(h.pmc.acceptPersist(0, 0x1000, std::nullopt));
    EXPECT_EQ(h.pmc.writes.value(), 1u);
    EXPECT_EQ(h.pmc.writeCoalesces.value(), 1u);
    EXPECT_EQ(h.pmc.persistsAccepted.value(), 2u);
}

TEST(PmController, WriteQueueFullRefusesPersists)
{
    MemConfig cfg;
    cfg.pmcWriteQueue = 2;
    cfg.pmBanks = 1;
    Harness h(Design::PmemSpec, cfg);
    EXPECT_TRUE(h.pmc.acceptPersist(0, 0 * 64, std::nullopt));
    EXPECT_TRUE(h.pmc.acceptPersist(0, 1 * 64, std::nullopt));
    EXPECT_FALSE(h.pmc.acceptPersist(0, 2 * 64, std::nullopt));
    EXPECT_EQ(h.pmc.persistsRefused.value(), 1u);
    h.eq.run(); // queue drains
    EXPECT_TRUE(h.pmc.acceptPersist(0, 2 * 64, std::nullopt));
}

TEST(PmController, RetiringWriteAdmitsWaitersInFifoOrder)
{
    MemConfig cfg;
    cfg.pmcWriteQueue = 1;
    Harness h(Design::PmemSpec, cfg);
    ASSERT_TRUE(h.pmc.acceptPersist(0, 0 * 64, std::nullopt));
    std::vector<std::pair<Addr, Tick>> admitted;
    for (Addr block : {Addr{1} * 64, Addr{2} * 64}) {
        ASSERT_FALSE(h.pmc.acceptPersist(1, block, std::nullopt));
        h.pmc.awaitAdmission([&h, &admitted, block] {
            admitted.emplace_back(block, h.eq.now());
            EXPECT_TRUE(h.pmc.acceptPersist(1, block, std::nullopt));
        });
    }
    EXPECT_EQ(h.pmc.persistsRefused.value(), 2u);
    h.eq.run();
    // Each retiring write frees the one slot for the oldest waiter.
    ASSERT_EQ(admitted.size(), 2u);
    EXPECT_EQ(admitted[0], std::make_pair(Addr{1} * 64, nsToTicks(94)));
    EXPECT_EQ(admitted[1], std::make_pair(Addr{2} * 64, nsToTicks(188)));
    EXPECT_EQ(h.pmc.admissionWait.samples(), 2u);
    EXPECT_DOUBLE_EQ(h.pmc.admissionWait.sum(), 94.0 + 188.0);
    EXPECT_EQ(h.pmc.writes.value(), 3u);
}

TEST(PmController, CoalescingPersistBypassesTheAdmissionFifo)
{
    MemConfig cfg;
    cfg.pmcWriteQueue = 1;
    Harness h(Design::PmemSpec, cfg);
    ASSERT_TRUE(h.pmc.acceptPersist(0, 0 * 64, std::nullopt));
    ASSERT_FALSE(h.pmc.acceptPersist(1, 1 * 64, std::nullopt));
    bool admitted = false;
    h.pmc.awaitAdmission([&] {
        admitted = true;
        EXPECT_TRUE(h.pmc.acceptPersist(1, 1 * 64, std::nullopt));
    });
    // Block 0 is still queued, so a newcomer to it takes no slot and
    // is accepted ahead of the waiter.
    EXPECT_TRUE(h.pmc.acceptPersist(2, 0 * 64, std::nullopt));
    EXPECT_EQ(h.pmc.writeCoalesces.value(), 1u);
    EXPECT_FALSE(admitted);
    h.eq.run();
    EXPECT_TRUE(admitted);
}

TEST(PmController, LoadMisspecEndToEnd)
{
    // WriteBack (dropped LLC eviction) -> Read from PM -> Persist
    // arrival: the full stale-read pattern through the PMC.
    Harness h(Design::PmemSpec);
    int misspecs = 0;
    h.pmc.specBuffer().setMisspecCallback(
        [&](Addr, mem::MisspecKind k) {
            if (k == mem::MisspecKind::LoadStale)
                ++misspecs;
        });
    h.pmc.writeBack(0x1000);
    h.pmc.read(0x1000, [] {});
    h.pmc.acceptPersist(0, 0x1000, std::nullopt);
    EXPECT_EQ(misspecs, 1);
    h.eq.run();
}

TEST(PmController, StoreOrderViolationDetected)
{
    Harness h(Design::PmemSpec);
    int store_misspecs = 0;
    h.pmc.specBuffer().setMisspecCallback(
        [&](Addr, mem::MisspecKind k) {
            if (k == mem::MisspecKind::StoreOrder)
                ++store_misspecs;
        });
    // Core 1's store (spec-id 5) persists, then core 0's earlier
    // store (spec-id 3) arrives late: inter-thread WAW inversion.
    EXPECT_TRUE(h.pmc.acceptPersist(1, 0x1000, SpecId{5}));
    EXPECT_TRUE(h.pmc.acceptPersist(0, 0x1000, SpecId{3}));
    EXPECT_EQ(store_misspecs, 1);
    h.eq.run();
}

TEST(PmController, InOrderSpecIdsAreBenign)
{
    Harness h(Design::PmemSpec);
    int misspecs = 0;
    h.pmc.specBuffer().setMisspecCallback(
        [&](Addr, mem::MisspecKind) { ++misspecs; });
    EXPECT_TRUE(h.pmc.acceptPersist(0, 0x1000, SpecId{3}));
    EXPECT_TRUE(h.pmc.acceptPersist(1, 0x1000, SpecId{5}));
    EXPECT_TRUE(h.pmc.acceptPersist(0, 0x1000, SpecId{5}));
    EXPECT_EQ(misspecs, 0);
    h.eq.run();
}

TEST(PmController, SpecIdCheckExpiresWithWindow)
{
    Harness h(Design::PmemSpec);
    int misspecs = 0;
    h.pmc.specBuffer().setMisspecCallback(
        [&](Addr, mem::MisspecKind) { ++misspecs; });
    EXPECT_TRUE(h.pmc.acceptPersist(1, 0x1000, SpecId{5}));
    // Far outside the speculation window the race cannot be real.
    h.eq.runUntil(h.cfg.effectiveSpecWindow() * 4);
    EXPECT_TRUE(h.pmc.acceptPersist(0, 0x1000, SpecId{3}));
    EXPECT_EQ(misspecs, 0);
    h.eq.run();
}

TEST(PmController, UntaggedPersistsNeverStoreMisspeculate)
{
    Harness h(Design::PmemSpec);
    int misspecs = 0;
    h.pmc.specBuffer().setMisspecCallback(
        [&](Addr, mem::MisspecKind) { ++misspecs; });
    for (int i = 0; i < 100; ++i)
        h.pmc.acceptPersist(i % 4, 0x1000, std::nullopt);
    EXPECT_EQ(misspecs, 0);
    h.eq.run();
}

TEST(PmController, HopsBloomDelaysConflictingReads)
{
    Harness h(Design::HOPS);
    // Simulate a buffered persist: the filter knows about the block.
    h.pmc.filterInsert(0x1000);
    Tick done = 0;
    h.pmc.read(0x1000, [&] { done = h.eq.now(); });
    h.eq.runUntil(nsToTicks(500));
    EXPECT_EQ(done, 0u); // postponed: true conflict
    EXPECT_EQ(h.pmc.bloomTrueHits.value(), 1u);
    h.pmc.filterRemove(0x1000); // buffer drained
    h.eq.run();
    EXPECT_GT(done, nsToTicks(500));
}

TEST(PmController, HopsCleanReadPaysOnlyLookup)
{
    Harness h(Design::HOPS);
    Tick done = 0;
    h.pmc.read(0x1000, [&] { done = h.eq.now(); });
    h.eq.run();
    EXPECT_EQ(done, h.cfg.bloomLookupLatency + nsToTicks(175));
}

TEST(PmController, NonHopsReadsSkipTheBloomFilter)
{
    Harness h(Design::PmemSpec);
    Tick done = 0;
    h.pmc.read(0x1000, [&] { done = h.eq.now(); });
    h.eq.run();
    EXPECT_EQ(done, nsToTicks(175));
}

TEST(PmController, SpecBufferOnlyExistsForPmemSpec)
{
    Harness h(Design::IntelX86);
    EXPECT_DEATH(h.pmc.specBuffer(), "PMEM-Spec");
}
