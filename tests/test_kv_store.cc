/**
 * @file
 * Unit tests for the memcached-like KV store, including the LRU list
 * behaviour on GETs and the torn-value check.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "pmds/kv_store.hh"
#include "runtime/fase_runtime.hh"
#include "runtime/scratch_bytes.hh"
#include "runtime/virtual_os.hh"

using namespace pmemspec;
using pmds::KvConfig;
using pmds::KvStore;
using runtime::FaseRuntime;
using runtime::PersistentMemory;
using runtime::RecoveryPolicy;
using runtime::Transaction;
using runtime::VirtualOs;

namespace
{

struct Harness
{
    PersistentMemory pm{1 << 24};
    VirtualOs os;
    KvConfig cfg;
    KvStore kv;
    FaseRuntime rt{pm, os, 1, RecoveryPolicy::Lazy, 1 << 17};

    Harness() : cfg(makeCfg()), kv(pm, cfg) {}

    static KvConfig
    makeCfg()
    {
        KvConfig c;
        c.buckets = 64;
        c.valueBytes = 256;
        return c;
    }

    void
    set(std::uint64_t k, std::uint8_t b)
    {
        rt.runFase(0, [&](Transaction &tx) { kv.set(tx, k, b); });
    }

    std::optional<std::uint8_t>
    get(std::uint64_t k)
    {
        std::optional<std::uint8_t> out;
        rt.runFase(0, [&](Transaction &tx) { out = kv.get(tx, k); });
        return out;
    }
};

} // namespace

TEST(KvStore, MissReturnsNothing)
{
    Harness h;
    EXPECT_FALSE(h.get(1).has_value());
    EXPECT_EQ(h.kv.size(), 0u);
    EXPECT_TRUE(h.kv.checkInvariants());
}

TEST(KvStore, SetThenGet)
{
    Harness h;
    h.set(1, 0xAB);
    EXPECT_EQ(h.get(1), 0xAB);
    EXPECT_EQ(h.kv.lookup(1), 0xAB);
    EXPECT_EQ(h.kv.size(), 1u);
    EXPECT_TRUE(h.kv.checkInvariants());
}

TEST(KvStore, OverwriteReplacesWholeValue)
{
    Harness h;
    h.set(1, 0x11);
    h.set(1, 0x22);
    EXPECT_EQ(h.get(1), 0x22);
    EXPECT_EQ(h.kv.size(), 1u);
}

TEST(KvStore, GetBumpsLruAndHitCount)
{
    Harness h;
    h.set(1, 0x01);
    h.set(2, 0x02);
    EXPECT_EQ(h.kv.lruFrontKey(), 2u); // most recently set
    h.get(1);
    EXPECT_EQ(h.kv.lruFrontKey(), 1u); // bumped by the GET
    EXPECT_EQ(h.kv.hitCount(1), 1u);
    EXPECT_EQ(h.kv.hitCount(2), 0u);
    EXPECT_TRUE(h.kv.checkInvariants());
}

TEST(KvStore, EraseUnlinksFromLru)
{
    Harness h;
    h.set(1, 0x01);
    h.set(2, 0x02);
    h.set(3, 0x03);
    bool erased = false;
    h.rt.runFase(0,
                 [&](Transaction &tx) { erased = h.kv.erase(tx, 2); });
    EXPECT_TRUE(erased);
    EXPECT_EQ(h.kv.size(), 2u);
    EXPECT_FALSE(h.get(2).has_value());
    EXPECT_TRUE(h.kv.checkInvariants());
}

TEST(KvStore, LruOrderFollowsAccesses)
{
    Harness h;
    for (std::uint64_t k = 1; k <= 4; ++k)
        h.set(k, static_cast<std::uint8_t>(k));
    h.get(1);
    h.get(3);
    EXPECT_EQ(h.kv.lruFrontKey(), 3u);
    h.get(1);
    EXPECT_EQ(h.kv.lruFrontKey(), 1u);
    EXPECT_TRUE(h.kv.checkInvariants());
}

TEST(KvStore, AbortedSetRollsBackValueAndLru)
{
    Harness h;
    h.set(1, 0x01);
    h.set(2, 0x02);
    int runs = 0;
    h.rt.runFase(0, [&](Transaction &tx) {
        if (++runs == 1) {
            h.kv.set(tx, 1, 0x99);
            h.os.raiseMisspecInterrupt(1);
        }
    });
    EXPECT_EQ(h.get(1), 0x01);
    EXPECT_EQ(h.kv.lruFrontKey(), 1u); // the recovery GET bumped it
    EXPECT_TRUE(h.kv.checkInvariants());
}

TEST(KvStore, RandomisedMixStaysConsistent)
{
    Harness h;
    Rng rng(47);
    std::optional<std::uint8_t> model[32];
    for (int op = 0; op < 500; ++op) {
        const std::uint64_t k = rng.below(32);
        if (rng.chance(0.5)) {
            const auto b = static_cast<std::uint8_t>(rng.next());
            h.set(k, b);
            model[k] = b;
        } else {
            ASSERT_EQ(h.get(k), model[k]) << "key " << k;
        }
    }
    EXPECT_TRUE(h.kv.checkInvariants());
}

TEST(KvStore, LruTrackingCanBeDisabled)
{
    PersistentMemory pm(1 << 24);
    VirtualOs os;
    KvConfig cfg;
    cfg.buckets = 16;
    cfg.valueBytes = 64;
    cfg.lruTracking = false;
    KvStore kv(pm, cfg);
    FaseRuntime rt(pm, os, 1, RecoveryPolicy::Lazy);
    rt.runFase(0, [&](Transaction &tx) { kv.set(tx, 1, 0x01); });
    rt.runFase(0, [&](Transaction &tx) { kv.get(tx, 1); });
    EXPECT_EQ(kv.lruFrontKey(), 0u);
    EXPECT_TRUE(kv.checkInvariants());
}

TEST(KvStore, CheckInvariantsReadsAreLinear)
{
    // One check walks the LRU list once and each bucket chain a
    // constant number of times: its observed PM reads stay within a
    // constant factor of items + buckets as the store grows.
    constexpr std::size_t kBuckets = 256;
    constexpr std::uint64_t kReadsPerUnit = 16;
    for (const std::size_t items : {std::size_t{256}, std::size_t{1024}}) {
        PersistentMemory pm(1 << 24);
        VirtualOs os;
        KvConfig cfg;
        cfg.buckets = kBuckets;
        cfg.valueBytes = 16;
        KvStore kv(pm, cfg);
        FaseRuntime rt(pm, os, 1, RecoveryPolicy::Lazy, 1 << 17);
        for (std::uint64_t k = 0; k < items; ++k)
            rt.runFase(0, [&](Transaction &tx) {
                kv.set(tx, k, static_cast<std::uint8_t>(k | 1));
            });
        std::uint64_t reads = 0;
        pm.setObserver([&](runtime::MemOp op, Addr, std::uint32_t) {
            reads += op != runtime::MemOp::Write;
        });
        EXPECT_TRUE(kv.checkInvariants());
        pm.setObserver(nullptr);
        EXPECT_LE(reads, kReadsPerUnit * (items + kBuckets))
            << items << " items";
    }
}

// The torn-value check compares the whole value: a slab that differs
// only in its first or only in its last byte must still be caught.
TEST(KvStoreDeathTest, ValueDifferingInAnEndByteIsTorn)
{
    for (const bool last : {false, true}) {
        Harness h;
        h.set(5, 0x11);
        const auto [slab, n] = *h.kv.slabRegion(5);
        const std::uint8_t other = 0x22;
        h.pm.write(last ? slab + n - 1 : slab, &other, 1);
        h.pm.persistAll();
        EXPECT_DEATH(h.get(5), "torn KV value observed for key 5")
            << (last ? "last byte" : "first byte");
    }
}

TEST(KvStore, ValuesLargerThanTheStackBufferRoundTrip)
{
    PersistentMemory pm(1 << 24);
    VirtualOs os;
    KvConfig cfg;
    cfg.buckets = 16;
    cfg.valueBytes = 4 * runtime::ScratchBytes::kInline;
    KvStore kv(pm, cfg);
    FaseRuntime rt(pm, os, 1, RecoveryPolicy::Lazy, 1 << 17);
    rt.runFase(0, [&](Transaction &tx) { kv.set(tx, 1, 0x5a); });
    rt.runFase(0, [&](Transaction &tx) { kv.set(tx, 1, 0x6b); });
    std::optional<std::uint8_t> got;
    rt.runFase(0, [&](Transaction &tx) { got = kv.get(tx, 1); });
    EXPECT_EQ(got, std::optional<std::uint8_t>{0x6b});
}
