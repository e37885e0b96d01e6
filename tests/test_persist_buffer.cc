/**
 * @file
 * Unit tests for the HOPS/DPO persist buffers: epoch ordering,
 * coalescing, drain width, the DPO global-flush token, cross-thread
 * dependencies, and dfence notification.
 */

#include <gtest/gtest.h>

#include <vector>

#include "mem/persist_buffer.hh"
#include "sim/event_queue.hh"

using namespace pmemspec;
using mem::GlobalDrainToken;
using mem::PersistBuffer;
using sim::EventQueue;

namespace
{

struct Delivery
{
    CoreId core;
    Addr addr;
    Tick at;
};

struct Harness
{
    EventQueue eq;
    StatGroup stats{"test"};
    std::vector<Delivery> delivered;
    /** A fake PMC: while !accept it refuses, keeping each refused
     *  persist's admission waiter until the test admits them. */
    bool accept = true;
    WaiterList<> admission;
    GlobalDrainToken token;

    PersistBuffer
    make(CoreId core, unsigned capacity = 32, unsigned width = 4,
         bool strict = false)
    {
        return PersistBuffer(
            eq, &stats, core, nsToTicks(20), capacity, width, strict,
            strict ? &token : nullptr,
            [this](CoreId c, Addr a, Waiter &on_admit) {
                if (!accept) {
                    admission.add(std::move(on_admit));
                    return false;
                }
                delivered.push_back(Delivery{c, a, eq.now()});
                return true;
            });
    }

    /** Open the PMC at now() + d and admit its waiters. */
    void
    admitAfter(Tick d)
    {
        eq.schedule(After{d}, [this] {
            accept = true;
            admission.wake();
        });
    }
};

} // namespace

TEST(PersistBuffer, DrainsAnAppendedEntry)
{
    Harness h;
    auto buf = h.make(0);
    buf.append(0x1000);
    h.eq.run();
    ASSERT_EQ(h.delivered.size(), 1u);
    EXPECT_EQ(h.delivered[0].addr, 0x1000u);
    EXPECT_EQ(h.delivered[0].at, nsToTicks(20));
    EXPECT_TRUE(buf.empty());
}

TEST(PersistBuffer, CoalescesSameBlockSameEpoch)
{
    // The first append launches immediately (in flight); only the
    // still-pending second entry can absorb the third store.
    Harness h;
    auto buf = h.make(0, 32, 1);
    buf.append(0x1000);
    buf.append(0x1000);
    buf.append(0x1000);
    h.eq.run();
    EXPECT_EQ(h.delivered.size(), 2u);
    EXPECT_EQ(buf.coalesces.value(), 1u);
}

TEST(PersistBuffer, NoCoalescingAcrossEpochs)
{
    Harness h;
    auto buf = h.make(0);
    buf.append(0x1000);
    buf.ofence();
    buf.append(0x1000);
    h.eq.run();
    EXPECT_EQ(h.delivered.size(), 2u);
    EXPECT_EQ(buf.coalesces.value(), 0u);
}

TEST(PersistBuffer, EpochOrderingSerialisesDrains)
{
    Harness h;
    auto buf = h.make(0);
    buf.append(0x1000);
    buf.ofence();
    buf.append(0x2000);
    h.eq.run();
    ASSERT_EQ(h.delivered.size(), 2u);
    EXPECT_EQ(h.delivered[0].addr, 0x1000u);
    EXPECT_EQ(h.delivered[1].addr, 0x2000u);
    // Epoch 1 may only start after epoch 0 is durable: 20ns + 20ns.
    EXPECT_GE(h.delivered[1].at, 2 * nsToTicks(20));
}

TEST(PersistBuffer, SameEpochDrainsConcurrently)
{
    Harness h;
    auto buf = h.make(0, 32, 4);
    for (int i = 0; i < 4; ++i)
        buf.append(static_cast<Addr>(0x1000 + 64 * i));
    h.eq.run();
    ASSERT_EQ(h.delivered.size(), 4u);
    // All four overlap: all arrive at the drain latency.
    for (const auto &d : h.delivered)
        EXPECT_EQ(d.at, nsToTicks(20));
}

TEST(PersistBuffer, DrainWidthLimitsConcurrency)
{
    Harness h;
    auto buf = h.make(0, 32, 2);
    for (int i = 0; i < 4; ++i)
        buf.append(static_cast<Addr>(0x1000 + 64 * i));
    h.eq.run();
    ASSERT_EQ(h.delivered.size(), 4u);
    EXPECT_EQ(h.delivered[0].at, nsToTicks(20));
    EXPECT_EQ(h.delivered[1].at, nsToTicks(20));
    EXPECT_GT(h.delivered[2].at, nsToTicks(20));
}

TEST(PersistBuffer, StrictFifoForcesWidthOne)
{
    Harness h;
    auto buf = h.make(0, 32, 4, /*strict=*/true);
    buf.append(0x1000);
    buf.append(0x2000);
    h.eq.run();
    ASSERT_EQ(h.delivered.size(), 2u);
    EXPECT_EQ(h.delivered[0].addr, 0x1000u);
    EXPECT_EQ(h.delivered[1].addr, 0x2000u);
    EXPECT_GT(h.delivered[1].at, h.delivered[0].at);
}

TEST(PersistBuffer, DpoTokenSerialisesAcrossBuffers)
{
    Harness h;
    auto a = h.make(0, 32, 4, true);
    auto b = h.make(1, 32, 4, true);
    a.append(0x1000);
    b.append(0x2000);
    h.eq.run();
    ASSERT_EQ(h.delivered.size(), 2u);
    // The second flush initiation waits for the token hold.
    EXPECT_NE(h.delivered[0].at, h.delivered[1].at);
}

TEST(PersistBuffer, FullAndBackpressure)
{
    Harness h;
    h.accept = false;
    auto buf = h.make(0, 2, 1);
    buf.append(0x1000);
    buf.append(0x2000);
    EXPECT_TRUE(buf.full());
    Tick spaced_at = 0;
    buf.notifyWhenNotFull([&] { spaced_at = h.eq.now(); });
    h.eq.run();
    // The in-flight entry waits for admission with no event pending.
    EXPECT_EQ(spaced_at, 0u);
    EXPECT_EQ(h.eq.pending(), 0u);
    EXPECT_EQ(buf.pathRetries.value(), 1u);
    h.admitAfter(nsToTicks(80));
    h.eq.run();
    EXPECT_EQ(spaced_at, nsToTicks(100));
    ASSERT_EQ(h.delivered.size(), 2u);
    EXPECT_EQ(h.delivered[0].at, nsToTicks(100));
}

TEST(PersistBuffer, WaitsForPmcAdmissionInOrder)
{
    Harness h;
    h.accept = false;
    auto buf = h.make(0, 32, 4);
    for (int i = 0; i < 4; ++i)
        buf.append(static_cast<Addr>(0x1000 + 64 * i));
    h.eq.run();
    EXPECT_TRUE(h.delivered.empty());
    EXPECT_EQ(h.eq.pending(), 0u);
    EXPECT_EQ(buf.pathRetries.value(), 4u);
    h.admitAfter(nsToTicks(30));
    h.eq.run();
    ASSERT_EQ(h.delivered.size(), 4u);
    for (int i = 0; i < 4; ++i) {
        EXPECT_EQ(h.delivered[i].addr, static_cast<Addr>(0x1000 + 64 * i));
        EXPECT_EQ(h.delivered[i].at, nsToTicks(50));
    }
    EXPECT_TRUE(buf.empty());
}

TEST(PersistBuffer, AppendWhileFullPanics)
{
    Harness h;
    h.accept = false;
    auto buf = h.make(0, 1);
    buf.append(0x1000);
    EXPECT_DEATH(buf.append(0x2000), "overflow");
    h.admitAfter(0);
    h.eq.run();
}

TEST(PersistBuffer, NotifyWhenEmptyTracksDrain)
{
    Harness h;
    auto buf = h.make(0);
    buf.append(0x1000);
    Tick empty_at = 0;
    buf.notifyWhenEmpty([&] { empty_at = h.eq.now(); });
    h.eq.run();
    EXPECT_EQ(empty_at, nsToTicks(20));
}

TEST(PersistBuffer, DependencyBlocksDrainUntilSatisfied)
{
    Harness h;
    h.accept = false; // hold releaser's entry in flight
    auto releaser = h.make(0);
    auto acquirer = h.make(1);
    releaser.setProgressHook([&] { acquirer.pump(); });

    releaser.append(0x1000);
    // Lock handoff: acquirer depends on everything the releaser
    // buffered so far.
    acquirer.addDependency(&releaser, releaser.nextSeq());
    acquirer.append(0x2000);
    h.eq.runUntil(nsToTicks(200));
    EXPECT_TRUE(h.delivered.empty());
    EXPECT_GT(acquirer.depStalls.value(), 0u);

    h.admitAfter(0);
    h.eq.run();
    ASSERT_EQ(h.delivered.size(), 2u);
    EXPECT_EQ(h.delivered[0].addr, 0x1000u); // releaser persisted first
    EXPECT_EQ(h.delivered[1].addr, 0x2000u);
}

TEST(PersistBuffer, SatisfiedDependencyIsIgnored)
{
    Harness h;
    auto releaser = h.make(0);
    auto acquirer = h.make(1);
    releaser.append(0x1000);
    h.eq.run(); // fully drained
    acquirer.addDependency(&releaser, releaser.nextSeq());
    acquirer.append(0x2000);
    h.eq.run();
    EXPECT_EQ(h.delivered.size(), 2u);
    EXPECT_EQ(acquirer.depStalls.value(), 0u);
}

TEST(PersistBuffer, SelfDependencyIsIgnored)
{
    Harness h;
    auto buf = h.make(0);
    buf.append(0x1000);
    buf.addDependency(&buf, 100);
    h.eq.run();
    EXPECT_EQ(h.delivered.size(), 1u);
}

TEST(PersistBuffer, OldestUnpersistedSeqAdvances)
{
    Harness h;
    auto buf = h.make(0);
    EXPECT_EQ(buf.oldestUnpersistedSeq(),
              std::numeric_limits<std::uint64_t>::max());
    buf.append(0x1000);
    EXPECT_EQ(buf.oldestUnpersistedSeq(), 0u);
    h.eq.run();
    EXPECT_EQ(buf.oldestUnpersistedSeq(),
              std::numeric_limits<std::uint64_t>::max());
    EXPECT_EQ(buf.nextSeq(), 1u);
}

TEST(PersistBuffer, FilterHooksMirrorContents)
{
    Harness h;
    auto buf = h.make(0, 32, 1);
    int inserts = 0, removes = 0;
    buf.setFilterHooks([&](Addr) { ++inserts; },
                       [&](Addr) { ++removes; });
    buf.append(0x1000); // launches in flight
    buf.append(0x1000); // pending
    buf.append(0x1000); // coalesced into the pending entry
    EXPECT_EQ(inserts, 2);
    h.eq.run();
    EXPECT_EQ(removes, 2);
}
