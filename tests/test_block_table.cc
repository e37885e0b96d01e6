/**
 * @file
 * Unit tests for the SoA per-block state table.
 */

#include <gtest/gtest.h>

#include <vector>

#include "mem/block_table.hh"

using namespace pmemspec;
using mem::BlockTable;

namespace
{

constexpr Addr kA = 0x1000;
constexpr Addr kB = 0x2040;
constexpr Addr kC = 0x30c0;

} // namespace

TEST(BlockTable, CoalescableLifecycle)
{
    BlockTable t;
    EXPECT_FALSE(t.coalescable(kA));
    EXPECT_TRUE(t.markCoalescable(kA));
    EXPECT_FALSE(t.markCoalescable(kA)); // second mark = coalesce hit
    EXPECT_TRUE(t.coalescable(kA));
    // Sub-block addresses alias the same block entry.
    EXPECT_TRUE(t.coalescable(kA + 8));
    t.clearCoalescable(kA);
    EXPECT_FALSE(t.coalescable(kA));
    EXPECT_TRUE(t.markCoalescable(kA));
}

TEST(BlockTable, PendingPersistCount)
{
    BlockTable t;
    EXPECT_EQ(t.pendingPersists(kA), 0u);
    t.persistBuffered(kA);
    t.persistBuffered(kA);
    EXPECT_EQ(t.pendingPersists(kA), 2u);
    EXPECT_FALSE(t.persistDrained(kA));
    EXPECT_TRUE(t.persistDrained(kA));
    EXPECT_EQ(t.pendingPersists(kA), 0u);
}

TEST(BlockTable, PersistDrainedWithoutBufferedPanics)
{
    BlockTable t;
    EXPECT_DEATH(t.persistDrained(kA), "matching");
}

TEST(BlockTable, SpecOrderAutomaton)
{
    const Tick window = 1000;
    BlockTable t;

    auto r = t.specPersist(kA, 5, 100, window);
    EXPECT_EQ(r.step, BlockTable::SpecStep::Inserted);
    EXPECT_TRUE(t.specTracked(kA));

    // In-order persist max-merges and refreshes the window.
    r = t.specPersist(kA, 9, 200, window);
    EXPECT_EQ(r.step, BlockTable::SpecStep::Refreshed);
    EXPECT_EQ(r.prev, 5u);

    // Equal ID re-observed: never a violation.
    r = t.specPersist(kA, 9, 300, window);
    EXPECT_EQ(r.step, BlockTable::SpecStep::Refreshed);

    // Lower ID inside the window: WAW inversion, entry cleared.
    r = t.specPersist(kA, 7, 400, window);
    EXPECT_EQ(r.step, BlockTable::SpecStep::Violation);
    EXPECT_EQ(r.prev, 9u);
    EXPECT_FALSE(t.specTracked(kA));

    // Lower ID but outside the window: stale metadata, no violation.
    r = t.specPersist(kB, 8, 100, window);
    EXPECT_EQ(r.step, BlockTable::SpecStep::Inserted);
    r = t.specPersist(kB, 3, 100 + window + 1, window);
    EXPECT_EQ(r.step, BlockTable::SpecStep::Refreshed);
    EXPECT_EQ(r.prev, 8u); // max-merge keeps the higher ID

    // Lazy expiry: a sweep inside the window is a no-op, one past it
    // drops the entry and reports the expired ID.
    SpecId expired = 0;
    EXPECT_FALSE(t.specExpire(kB, 100 + window + 1, window, &expired));
    EXPECT_TRUE(
        t.specExpire(kB, 100 + 2 * window + 2, window, &expired));
    EXPECT_EQ(expired, 8u);
    EXPECT_FALSE(t.specTracked(kB));
}

TEST(BlockTable, GrowsPastInitialCapacityAndCompactsDeadEntries)
{
    BlockTable t(16);
    const unsigned n = 4096;
    for (unsigned i = 0; i < n; ++i)
        EXPECT_TRUE(t.markCoalescable(static_cast<Addr>(i) * 64));
    EXPECT_EQ(t.blocksTracked(), n);
    for (unsigned i = 0; i < n; ++i)
        EXPECT_TRUE(t.coalescable(static_cast<Addr>(i) * 64));
    // Clearing every automaton leaves dead entries that the next
    // growth wave compacts away; state must stay correct throughout.
    for (unsigned i = 0; i < n; ++i)
        t.clearCoalescable(static_cast<Addr>(i) * 64);
    EXPECT_EQ(t.blocksTracked(), 0u);
    for (unsigned i = 0; i < n; ++i)
        t.persistBuffered((static_cast<Addr>(i) * 64) + (1ull << 20));
    EXPECT_EQ(t.blocksTracked(), n);
    for (unsigned i = 0; i < n; ++i) {
        EXPECT_FALSE(t.coalescable(static_cast<Addr>(i) * 64));
        EXPECT_EQ(
            t.pendingPersists((static_cast<Addr>(i) * 64) + (1ull << 20)),
            1u);
    }
}
