/**
 * @file
 * Unit tests for the fixed-capacity FIFO ring of the timing path's
 * bounded queues.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <optional>

#include "common/fifo_ring.hh"
#include "common/rng.hh"

using namespace pmemspec;

TEST(FifoRing, MatchesADequeAcrossWrapAround)
{
    // Seeded random pushes and pops; capacities that are and are not
    // powers of two, small enough that the head wraps many times.
    for (std::size_t cap : {1u, 3u, 8u, 13u, 32u}) {
        for (std::uint64_t seed = 1; seed <= 5; ++seed) {
            FifoRing<std::optional<std::uint64_t>> ring(cap);
            std::deque<std::optional<std::uint64_t>> ref;
            Rng rng(seed);
            for (int op = 0; op < 4000; ++op) {
                if (!ring.full() && rng.below(2) == 0) {
                    std::optional<std::uint64_t> v;
                    if (rng.below(4) != 0)
                        v = rng.below(1u << 20);
                    ring.push_back(v);
                    ref.push_back(v);
                } else if (!ring.empty()) {
                    ASSERT_EQ(ring.front(), ref.front());
                    ring.pop_front();
                    ref.pop_front();
                }
                ASSERT_EQ(ring.size(), ref.size());
                ASSERT_EQ(ring.empty(), ref.empty());
                ASSERT_EQ(ring.full(), ref.size() == cap);
                for (std::size_t i = 0; i < ref.size(); ++i)
                    ASSERT_EQ(ring[i], ref[i])
                        << "cap " << cap << " seed " << seed;
            }
        }
    }
}

TEST(FifoRing, CapacityIsTheRequestedBound)
{
    FifoRing<int> ring(5); // storage rounds up to 8; the bound does not
    for (int i = 0; i < 5; ++i)
        ring.push_back(i);
    EXPECT_TRUE(ring.full());
    ring.pop_front();
    EXPECT_FALSE(ring.full());
    EXPECT_EQ(ring.front(), 1);
}

TEST(FifoRing, PushPastCapacityDies)
{
    FifoRing<int> ring(4);
    for (int i = 0; i < 4; ++i)
        ring.push_back(i);
    EXPECT_DEATH(ring.push_back(4), "overflow");
}

TEST(FifoRing, ZeroCapacityIsFatal)
{
    EXPECT_DEATH(FifoRing<int>(0), "capacity");
}
