/**
 * @file
 * Unit tests for the timing path's continuation primitives: InplaceFn
 * (inline storage, boxing, buffer-copy and relocating moves, target
 * lifetime) and the waiter lists and FIFO (firing order, waiters
 * queued during a wake, no allocation once warm).
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "alloc_counter.hh"
#include "common/inplace_fn.hh"
#include "common/waiter_list.hh"

using namespace pmemspec;

namespace
{

/** A callable of N bytes that counts its own destruction; a
 *  moved-from shell does not count. */
template <std::size_t N>
struct Probe
{
    int *dtors;
    bool live = true;
    std::array<char, N - 16> pad{};

    explicit Probe(int *d) : dtors(d) {}
    Probe(Probe &&o) noexcept : dtors(o.dtors) { o.live = false; }
    ~Probe()
    {
        if (live)
            ++*dtors;
    }
    int operator()() const { return static_cast<int>(sizeof(Probe)); }
};
static_assert(sizeof(Probe<24>) == InplaceFn<int()>::kInlineBytes);
static_assert(sizeof(Probe<64>) == 64);

} // namespace

TEST(InplaceFn, TwentyFourByteCallableIsStoredInline)
{
    std::uint64_t a = 1, b = 2, c = 3;
    auto f = [a, b, c] { return a + b + c; };
    static_assert(sizeof(f) == InplaceFn<int()>::kInlineBytes);
    AllocCounter counter;
    InplaceFn<std::uint64_t()> fn(f);
    InplaceFn<std::uint64_t()> moved(std::move(fn));
    EXPECT_EQ(moved(), 6u);
    EXPECT_EQ(counter.count(), 0u);
}

TEST(InplaceFn, LargerCallableIsBoxedOnce)
{
    std::uint64_t a = 1, b = 2, c = 3, d = 4;
    auto f = [a, b, c, d] { return a + b + c + d; };
    AllocCounter counter;
    InplaceFn<std::uint64_t()> fn(f);
    InplaceFn<std::uint64_t()> moved(std::move(fn));
    InplaceFn<std::uint64_t()> again;
    again = std::move(moved);
    EXPECT_EQ(again(), 10u);
    EXPECT_EQ(counter.count(), 1u);
}

TEST(InplaceFn, MoveLeavesTheSourceEmpty)
{
    InplaceFn<int()> src([] { return 7; });
    InplaceFn<int()> dst(std::move(src));
    EXPECT_FALSE(src);
    ASSERT_TRUE(dst);
    EXPECT_EQ(dst(), 7);

    InplaceFn<int()> other;
    other = std::move(dst);
    EXPECT_FALSE(dst);
    EXPECT_EQ(other(), 7);
}

TEST(InplaceFn, TargetIsDestroyedExactlyOnce)
{
    int inline_dtors = 0, boxed_dtors = 0;
    {
        AllocCounter counter;
        InplaceFn<int()> in{Probe<24>(&inline_dtors)};
        InplaceFn<int()> in2(std::move(in));
        InplaceFn<int()> box{Probe<64>(&boxed_dtors)};
        InplaceFn<int()> box2(std::move(box));
        EXPECT_EQ(in2(), 24);
        EXPECT_EQ(box2(), 64);
        EXPECT_EQ(inline_dtors, 0);
        EXPECT_EQ(boxed_dtors, 0);
        EXPECT_EQ(counter.count(), 1u); // only the 64-byte probe
    }
    EXPECT_EQ(inline_dtors, 1);
    EXPECT_EQ(boxed_dtors, 1);
}

TEST(InplaceFn, AssignmentDestroysTheOldTarget)
{
    int first = 0, second = 0, boxed = 0;
    InplaceFn<int()> fn{Probe<24>(&first)};
    fn = nullptr;
    EXPECT_FALSE(fn);
    EXPECT_EQ(first, 1);

    fn = InplaceFn<int()>{Probe<24>(&second)};
    fn = InplaceFn<int()>{Probe<64>(&boxed)};
    EXPECT_EQ(second, 1);
    EXPECT_EQ(boxed, 0);
    fn = InplaceFn<int()>([] { return 0; });
    EXPECT_EQ(boxed, 1);
    EXPECT_EQ(fn(), 0);
}

TEST(InplaceFn, TriviallyCopyableCaptureSurvivesManyOwners)
{
    // Moved by copying the buffer: every hop must carry the whole
    // capture, and each emptied owner must stay empty.
    std::uint64_t a = 0x1111, b = 0x2222;
    auto f = [a, b](std::uint64_t x) { return a * x + b; };
    static_assert(std::is_trivially_copyable_v<decltype(f)>);
    AllocCounter counter;
    InplaceFn<std::uint64_t(std::uint64_t)> owners[5];
    owners[0] = f;
    for (std::size_t i = 1; i < 5; ++i) {
        owners[i] = std::move(owners[i - 1]);
        EXPECT_FALSE(owners[i - 1]);
    }
    InplaceFn<std::uint64_t(std::uint64_t)> last(std::move(owners[4]));
    EXPECT_FALSE(owners[4]);
    EXPECT_EQ(last(3), 0x1111u * 3 + 0x2222u);
    EXPECT_EQ(counter.count(), 0u);
}

TEST(InplaceFn, SharedPtrCaptureIsDestroyedOnce)
{
    // A capture with a non-trivial copy keeps its ops table: every
    // move relocates it and only the last owner releases it.
    auto token = std::make_shared<int>(5);
    {
        InplaceFn<int()> a([token] { return *token; });
        EXPECT_EQ(token.use_count(), 2);
        InplaceFn<int()> b(std::move(a));
        InplaceFn<int()> c;
        c = std::move(b);
        EXPECT_EQ(token.use_count(), 2);
        EXPECT_EQ(c(), 5);
        InplaceFn<int()> d([token] { return -*token; });
        EXPECT_EQ(token.use_count(), 3);
        d = std::move(c); // destroys d's own capture
        EXPECT_EQ(token.use_count(), 2);
        EXPECT_EQ(d(), 5);
    }
    EXPECT_EQ(token.use_count(), 1);
}

TEST(WaiterList, WakesInArrivalOrderOnceAndDefersLateWaiters)
{
    WaiterList<> list;
    std::vector<int> ran;
    list.add([&] { ran.push_back(1); });
    list.add([&] {
        ran.push_back(2);
        list.add([&] { ran.push_back(3); }); // waits for the next wake
    });
    list.wake();
    EXPECT_EQ(ran, (std::vector<int>{1, 2}));
    EXPECT_FALSE(list.empty());
    list.wake();
    EXPECT_EQ(ran, (std::vector<int>{1, 2, 3}));
    EXPECT_TRUE(list.empty());

    bool now = false;
    list.runOrAdd(true, [&] { now = true; });
    EXPECT_TRUE(now);
    EXPECT_TRUE(list.empty());
}

TEST(WaiterList, KeepsItsCapacityAcrossWakes)
{
    // The queued and the firing vector swap at each wake, so both are
    // warm after two wakes; later rounds of the same size allocate
    // nothing.
    WaiterList<> list;
    int fired = 0;
    for (int round = 0; round < 4; ++round) {
        AllocCounter counter;
        for (int i = 0; i < 8; ++i)
            list.add([&] { ++fired; });
        list.wake();
        if (round >= 2) {
            EXPECT_EQ(counter.count(), 0u) << "round " << round;
        }
    }
    EXPECT_EQ(fired, 32);
}

TEST(BlockWaiters, WakesOneBlockInArrivalOrder)
{
    BlockWaiters<int> w;
    EXPECT_TRUE(w.add(0x40, 1));
    EXPECT_TRUE(w.add(0x80, 2));
    EXPECT_FALSE(w.add(0x40, 3));
    std::vector<int> got;
    EXPECT_TRUE(w.wake(0x40, [&](int v) { got.push_back(v); }));
    EXPECT_EQ(got, (std::vector<int>{1, 3}));
    EXPECT_FALSE(w.wake(0x40, [&](int v) { got.push_back(v); }));
    EXPECT_TRUE(w.add(0x40, 4)); // a new miss on the block
    EXPECT_TRUE(w.wake(0x80, [&](int v) { got.push_back(v); }));
    EXPECT_EQ(got, (std::vector<int>{1, 3, 2}));
}

TEST(WaiterFifo, PopsOldestFirstAndReusesItsStorage)
{
    // A queue that never drains keeps sliding its live tail down into
    // the storage it already has.
    WaiterFifo<int> fifo;
    int next_in = 0, next_out = 0;
    for (; next_in < 8; ++next_in)
        fifo.add(next_in);
    for (int round = 0; round < 4; ++round) {
        AllocCounter counter;
        for (int i = 0; i < 100; ++i) {
            EXPECT_EQ(fifo.pop(), next_out++);
            fifo.add(next_in++);
        }
        if (round >= 1) {
            EXPECT_EQ(counter.count(), 0u) << "round " << round;
        }
    }
    EXPECT_EQ(fifo.size(), 8u);
    while (!fifo.empty())
        EXPECT_EQ(fifo.pop(), next_out++);
    EXPECT_EQ(next_out, next_in);
}
