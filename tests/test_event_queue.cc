/**
 * @file
 * Unit tests for the discrete-event kernel.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <tuple>
#include <vector>

#include "common/rng.hh"
#include "sim/clock.hh"
#include "sim/event_queue.hh"

using namespace pmemspec;
using sim::Clock;
using sim::EventQueue;

TEST(EventQueue, StartsAtTickZero)
{
    EventQueue eq;
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.pending(), 0u);
}

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, EqualTicksRunInInsertionOrder)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 16; ++i)
        eq.schedule(5, [&, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, ScheduleInIsRelative)
{
    EventQueue eq;
    Tick seen = 0;
    eq.schedule(100, [&] {
        eq.schedule(After{50}, [&] { seen = eq.now(); });
    });
    eq.run();
    EXPECT_EQ(seen, 150u);
}

TEST(EventQueue, EventsMayScheduleMoreEvents)
{
    EventQueue eq;
    int depth = 0;
    std::function<void()> chain = [&] {
        if (++depth < 10)
            eq.schedule(After{1}, chain);
    };
    eq.schedule(After{1}, chain);
    eq.run();
    EXPECT_EQ(depth, 10);
    EXPECT_EQ(eq.now(), 10u);
}

TEST(EventQueue, StepReturnsFalseWhenEmpty)
{
    EventQueue eq;
    EXPECT_FALSE(eq.step());
    eq.schedule(1, [] {});
    EXPECT_TRUE(eq.step());
    EXPECT_FALSE(eq.step());
}

TEST(EventQueue, RunUntilStopsAtBoundaryInclusive)
{
    EventQueue eq;
    int ran = 0;
    eq.schedule(10, [&] { ++ran; });
    eq.schedule(20, [&] { ++ran; });
    eq.schedule(21, [&] { ++ran; });
    eq.runUntil(20);
    EXPECT_EQ(ran, 2);
    EXPECT_EQ(eq.now(), 20u);
    eq.run();
    EXPECT_EQ(ran, 3);
}

TEST(EventQueue, RunUntilAdvancesTimeWithoutEvents)
{
    EventQueue eq;
    eq.runUntil(500);
    EXPECT_EQ(eq.now(), 500u);
}

TEST(EventQueue, BudgetedRunStopsEarly)
{
    EventQueue eq;
    for (int i = 0; i < 100; ++i)
        eq.schedule(static_cast<Tick>(i), [] {});
    EXPECT_FALSE(eq.run(50));
    EXPECT_EQ(eq.executed(), 50u);
    EXPECT_TRUE(eq.run(1000));
}

TEST(EventQueue, SchedulingInThePastPanics)
{
    EventQueue eq;
    eq.schedule(100, [] {});
    eq.run();
    EXPECT_DEATH(eq.schedule(50, [] {}), "past");
}

TEST(EventQueue, ExecutedCounts)
{
    EventQueue eq;
    for (int i = 0; i < 7; ++i)
        eq.schedule(After{static_cast<Tick>(i)}, [] {});
    eq.run();
    EXPECT_EQ(eq.executed(), 7u);
}

TEST(EventQueue, SameTickFifoAcrossCalendarDays)
{
    // FIFO must hold for equal ticks regardless of which bucket (or
    // the far heap) the events land in at insertion time.
    EventQueue eq;
    std::vector<int> order;
    const Tick far_tick = 5'000'000; // beyond the ring horizon
    for (int i = 0; i < 8; ++i)
        eq.schedule(far_tick, [&, i] { order.push_back(i); });
    eq.schedule(1, [&] { order.push_back(100); });
    for (int i = 8; i < 16; ++i)
        eq.schedule(far_tick, [&, i] { order.push_back(i); });
    eq.run();
    ASSERT_EQ(order.size(), 17u);
    EXPECT_EQ(order[0], 100);
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i) + 1], i);
}

TEST(EventQueue, FarFutureEventsMigrateInOrder)
{
    EventQueue eq;
    std::vector<Tick> at;
    // Spread events far beyond one ring span, in reverse order.
    for (int i = 9; i >= 0; --i)
        eq.schedule(static_cast<Tick>(i) * 3'000'000,
                    [&] { at.push_back(eq.now()); });
    eq.run();
    ASSERT_EQ(at.size(), 10u);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(at[static_cast<std::size_t>(i)],
                  static_cast<Tick>(i) * 3'000'000);
}

TEST(EventQueue, ArenaChurnReusesSlots)
{
    // Heavy schedule/fire churn across many arena chunks, with events
    // scheduled from inside running ones; the sanitizer job turns any
    // use-after-free in slot recycling fatal.
    EventQueue eq;
    std::uint64_t ran = 0;
    for (int round = 0; round < 50; ++round) {
        for (int i = 0; i < 600; ++i) {
            eq.schedule(After{static_cast<Tick>(i % 7)}, [&, i] {
                ++ran;
                if (i % 3 == 0)
                    eq.schedule(After{static_cast<Tick>(i % 5)},
                                [&] { ++ran; });
            });
        }
        eq.run();
    }
    EXPECT_EQ(ran, 50u * 800u);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, LargeCallablesAreBoxedAndDestroyed)
{
    EventQueue eq;
    struct Big
    {
        std::shared_ptr<int> token;
        unsigned char pad[96]; // force the heap-boxed path
    };
    auto token = std::make_shared<int>(7);
    int got = 0;
    eq.schedule(1, [big = Big{token, {}}, &got] { got = *big.token; });
    eq.schedule(2, [big = Big{token, {}}] { (void)big; });
    EXPECT_EQ(token.use_count(), 3);
    // One runs and is destroyed; the other dies with the queue.
    EXPECT_FALSE(eq.run(1));
    EXPECT_EQ(got, 7);
    EXPECT_EQ(token.use_count(), 2);
    {
        EventQueue doomed;
        doomed.schedule(5, [big = Big{token, {}}] { (void)big; });
        EXPECT_EQ(token.use_count(), 3);
    }
    EXPECT_EQ(token.use_count(), 2);
    eq.run();
    EXPECT_EQ(token.use_count(), 1);
}

TEST(EventQueue, PendingCallablesDestroyedWithQueue)
{
    auto token = std::make_shared<int>(1);
    {
        EventQueue eq;
        eq.schedule(50, [token] { (void)token; });
        eq.schedule(8'000'000, [token] { (void)token; });
        EXPECT_EQ(token.use_count(), 3);
    }
    EXPECT_EQ(token.use_count(), 1);
}

TEST(EventQueue, RandomMixRunsInWhenSeqOrder)
{
    // Far events land beyond the ring horizon (4096 days of 256
    // ticks); ascending far runs exercise the far FIFO run, stray far
    // inserts the far heap, and the two meet in eviction. Callbacks
    // keep scheduling while the queue drains. Nothing is scheduled in
    // the past, so the execution order must be the sort of every
    // event by (when, schedule order).
    constexpr Tick kFar = Tick{1} << 21;
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        EventQueue eq;
        Rng rng(seed);
        struct Ev
        {
            Tick when;
            std::uint64_t id;
        };
        std::vector<Ev> evs;
        std::vector<std::uint64_t> ran;
        std::function<void(std::uint64_t)> body;

        auto add = [&](Tick when) {
            const std::uint64_t id = evs.size();
            evs.push_back({when, id});
            eq.schedule(when, [&body, id] { body(id); });
        };
        auto ascendingRun = [&](Tick from, unsigned n) {
            Tick t = from;
            for (unsigned i = 0; i < n; ++i) {
                add(t);
                t += rng.below(3) == 0 ? 0 : 1 + rng.below(kFar / 8);
            }
        };
        body = [&](std::uint64_t id) {
            ran.push_back(id);
            if (evs.size() >= 4000)
                return;
            const Tick now = eq.now();
            switch (rng.below(6)) {
              case 0: add(now + rng.below(1 << 18)); break; // near
              case 1: add(now + kFar + rng.below(kFar * 8)); break;
              case 2: ascendingRun(now + kFar * rng.below(4), 6); break;
              default: break;
            }
        };

        // A few stray far events first (a fault schedule), then long
        // ascending streams (client tapes) interleaved with near
        // events and stray far inserts.
        for (unsigned i = 0; i < 4; ++i)
            add(kFar * (4 + rng.below(40)));
        for (unsigned r = 0; r < 3; ++r) {
            ascendingRun(rng.below(kFar), 300);
            for (unsigned i = 0; i < 50; ++i) {
                add(rng.below(kFar * 64));
                add(rng.below(1 << 18));
            }
        }
        eq.run();

        std::vector<std::tuple<Tick, std::uint64_t>> want;
        for (const Ev &e : evs)
            want.emplace_back(e.when, e.id);
        std::sort(want.begin(), want.end());
        ASSERT_EQ(ran.size(), want.size()) << "seed " << seed;
        for (std::size_t i = 0; i < want.size(); ++i)
            ASSERT_EQ(ran[i], std::get<1>(want[i]))
                << "seed " << seed << " position " << i;
        EXPECT_TRUE(eq.empty());
    }
}

TEST(Clock, DefaultIsTwoGigahertz)
{
    Clock c;
    EXPECT_EQ(c.period(), 500u); // 500 ps
    EXPECT_DOUBLE_EQ(c.freqGhz(), 2.0);
}

TEST(Clock, CycleConversionsRoundTrip)
{
    Clock c(2.0);
    EXPECT_EQ(c.cyclesToTicks(4), 2000u);
    EXPECT_EQ(c.ticksToCycles(2000), 4u);
    // Rounding up.
    EXPECT_EQ(c.ticksToCycles(2001), 5u);
}

TEST(Clock, OneGigahertz)
{
    Clock c(1.0);
    EXPECT_EQ(c.period(), 1000u);
    EXPECT_EQ(c.cyclesToTicks(3), 3000u);
}
