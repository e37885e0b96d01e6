/**
 * @file
 * Unit tests for the decoupled persist-path (Section 4.2): FIFO
 * delivery in commit order, path latency, waiting for PMC admission,
 * one pump chain per path, and the spec-barrier drain notification.
 */

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "mem/persist_path.hh"
#include "sim/event_queue.hh"

using namespace pmemspec;
using mem::PersistPath;
using sim::EventQueue;

namespace
{

struct Delivery
{
    Addr addr;
    std::optional<SpecId> specId;
    Tick at;
};

struct Harness
{
    EventQueue eq;
    StatGroup stats{"test"};
    std::vector<Delivery> delivered;
    /** A fake PMC: while !accept it refuses, keeping the refused
     *  persist's admission waiter until the test calls admit(). */
    bool accept = true;
    WaiterList<> admission;
    PersistPath path;

    explicit Harness(Tick latency = nsToTicks(20), unsigned cap = 4)
        : path(eq, &stats, 0, latency, cap,
               [this](CoreId, Addr a, std::optional<SpecId> s,
                      Waiter &on_admit) {
                   if (!accept) {
                       admission.add(std::move(on_admit));
                       return false;
                   }
                   delivered.push_back(Delivery{a, s, eq.now()});
                   return true;
               })
    {
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

TEST(PersistPath, DeliversAfterPathLatency)
{
    Harness h;
    h.path.send(0x1000, std::nullopt);
    h.eq.run();
    ASSERT_EQ(h.delivered.size(), 1u);
    EXPECT_EQ(h.delivered[0].addr, 0x1000u);
    EXPECT_EQ(h.delivered[0].at, nsToTicks(20));
}

TEST(PersistPath, PreservesCommitOrder)
{
    Harness h;
    h.path.send(0x1000, std::nullopt);
    h.path.send(0x2000, std::nullopt);
    h.path.send(0x3000, std::nullopt);
    h.eq.run();
    ASSERT_EQ(h.delivered.size(), 3u);
    EXPECT_EQ(h.delivered[0].addr, 0x1000u);
    EXPECT_EQ(h.delivered[1].addr, 0x2000u);
    EXPECT_EQ(h.delivered[2].addr, 0x3000u);
    EXPECT_LE(h.delivered[0].at, h.delivered[1].at);
    EXPECT_LE(h.delivered[1].at, h.delivered[2].at);
}

TEST(PersistPath, CarriesSpeculationIds)
{
    Harness h;
    h.path.send(0x1000, SpecId{7});
    h.path.send(0x2000, std::nullopt);
    h.eq.run();
    ASSERT_EQ(h.delivered.size(), 2u);
    EXPECT_EQ(h.delivered[0].specId, SpecId{7});
    EXPECT_FALSE(h.delivered[1].specId.has_value());
}

TEST(PersistPath, FlitRateSpacesBackToBackSends)
{
    Harness h;
    // Sent in the same tick, they arrive one flit-cycle apart.
    h.path.send(0x1000, std::nullopt);
    h.path.send(0x2000, std::nullopt);
    h.eq.run();
    EXPECT_EQ(h.delivered[0].at, nsToTicks(20));
    EXPECT_EQ(h.delivered[1].at, nsToTicks(21));
}

TEST(PersistPath, FullAppliesBackpressure)
{
    Harness h(nsToTicks(20), 2);
    h.path.send(0x1000, std::nullopt);
    h.path.send(0x2000, std::nullopt);
    EXPECT_TRUE(h.path.full());
    bool spaced = false;
    h.path.notifyWhenNotFull([&] { spaced = true; });
    EXPECT_FALSE(spaced);
    h.eq.run();
    EXPECT_TRUE(spaced);
    EXPECT_FALSE(h.path.full());
}

TEST(PersistPath, SendWhileFullPanics)
{
    Harness h(nsToTicks(20), 1);
    h.path.send(0x1000, std::nullopt);
    EXPECT_DEATH(h.path.send(0x2000, std::nullopt), "overflow");
}

TEST(PersistPath, WaitsForPmcAdmission)
{
    Harness h;
    h.accept = false;
    h.path.send(0x1000, std::nullopt);
    h.eq.run();
    // Refused at 20ns: the head waits for admission, no event pending.
    EXPECT_TRUE(h.delivered.empty());
    EXPECT_EQ(h.eq.pending(), 0u);
    EXPECT_EQ(h.path.pathRetries.value(), 1u);
    h.admitAfter(nsToTicks(80));
    h.eq.run();
    ASSERT_EQ(h.delivered.size(), 1u);
    EXPECT_EQ(h.delivered[0].at, nsToTicks(100));
    EXPECT_EQ(h.path.deliveries.value(), 1u);
    EXPECT_EQ(h.path.pathRetries.value(), 1u);
}

TEST(PersistPath, OrderSurvivesBackpressure)
{
    Harness h;
    h.accept = false;
    h.path.send(0x1000, std::nullopt);
    h.path.send(0x2000, std::nullopt);
    h.path.send(0x3000, std::nullopt);
    h.eq.run();
    // Only the head waits; the flits behind it schedule nothing.
    EXPECT_TRUE(h.delivered.empty());
    EXPECT_EQ(h.eq.pending(), 0u);
    EXPECT_EQ(h.path.pathRetries.value(), 1u);
    h.admitAfter(nsToTicks(180));
    h.eq.run();
    ASSERT_EQ(h.delivered.size(), 3u);
    EXPECT_EQ(h.delivered[0].addr, 0x1000u);
    EXPECT_EQ(h.delivered[1].addr, 0x2000u);
    EXPECT_EQ(h.delivered[2].addr, 0x3000u);
    // The backlog was ready long ago: it all lands at the wake tick.
    for (const auto &d : h.delivered)
        EXPECT_EQ(d.at, nsToTicks(200));
}

TEST(PersistPath, SendFromTheSpaceWakeKeepsOnePumpPending)
{
    Harness h(nsToTicks(20), 2);
    h.path.send(0x1000, std::nullopt);
    h.path.send(0x2000, std::nullopt);
    ASSERT_TRUE(h.path.full());
    // A stalled store retries from the space wake, as the store queue
    // does.
    h.path.notifyWhenNotFull([&] { h.path.send(0x3000, std::nullopt); });
    h.eq.runUntil(nsToTicks(20));
    ASSERT_EQ(h.delivered.size(), 1u);
    EXPECT_EQ(h.path.occupancy(), 2u);
    EXPECT_EQ(h.eq.pending(), 1u);
    h.eq.run();
    ASSERT_EQ(h.delivered.size(), 3u);
    EXPECT_EQ(h.delivered[1].addr, 0x2000u);
    EXPECT_EQ(h.delivered[2].addr, 0x3000u);
}

TEST(PersistPath, NotifyWhenEmptyFiresImmediatelyIfIdle)
{
    Harness h;
    bool fired = false;
    h.path.notifyWhenEmpty([&] { fired = true; });
    EXPECT_TRUE(fired);
}

TEST(PersistPath, NotifyWhenEmptyWaitsForDrain)
{
    Harness h;
    h.path.send(0x1000, std::nullopt);
    Tick empty_at = 0;
    h.path.notifyWhenEmpty([&] { empty_at = h.eq.now(); });
    h.eq.run();
    EXPECT_EQ(empty_at, nsToTicks(20));
    EXPECT_TRUE(h.path.empty());
}

TEST(PersistPath, ConfigurableLatency)
{
    Harness h(nsToTicks(100));
    h.path.send(0x1000, std::nullopt);
    h.eq.run();
    EXPECT_EQ(h.delivered[0].at, nsToTicks(100));
}

TEST(PersistPath, CountsSendsAndDeliveries)
{
    Harness h;
    for (int i = 0; i < 4; ++i) {
        h.path.send(static_cast<Addr>(0x1000 + 64 * i), std::nullopt);
        h.eq.run();
    }
    EXPECT_EQ(h.path.sends.value(), 4u);
    EXPECT_EQ(h.path.deliveries.value(), 4u);
}
