/**
 * @file
 * Cross-module crash-recovery property tests: run random failure-
 * atomic operations against each persistent data structure, crash at
 * a random persist prefix (strict persistency's failure model),
 * recover, and verify the structure invariants plus all-or-nothing
 * visibility of the interrupted FASE.
 */

#include <gtest/gtest.h>

#include <deque>

#include "common/rng.hh"
#include "pmds/kv_store.hh"
#include "pmds/pm_array.hh"
#include "pmds/pm_hashmap.hh"
#include "pmds/pm_queue.hh"
#include "pmds/pm_rbtree.hh"
#include "runtime/fase_runtime.hh"
#include "runtime/virtual_os.hh"

using namespace pmemspec;
using runtime::FaseRuntime;
using runtime::PersistentMemory;
using runtime::RecoveryPolicy;
using runtime::Transaction;
using runtime::VirtualOs;

namespace
{

/**
 * Run `fn` as a FASE but crash with a random in-flight prefix midway
 * with probability p; @return true if the FASE committed.
 */
template <typename Fn>
bool
runMaybeCrash(FaseRuntime &rt, PersistentMemory &pm, Rng &rng, Fn fn)
{
    try {
        rt.runFase(0, [&](Transaction &tx) {
            fn(tx);
            if (rng.chance(0.3)) {
                pm.crash(rng.below(pm.inFlightCount() + 1));
                throw runtime::PowerLoss{};
            }
        });
    } catch (const runtime::PowerLoss &) {
        rt.recoverAll();
        return false;
    }
    return true;
}

} // namespace

TEST(CrashRecovery, ArraySwapsPreserveChecksumAcrossCrashes)
{
    Rng rng(101);
    PersistentMemory pm(1 << 22);
    VirtualOs os;
    FaseRuntime rt(pm, os, 1, RecoveryPolicy::Lazy);
    pmds::PmArray arr(pm, 64, 64);
    for (std::size_t i = 0; i < 64; ++i)
        arr.init(i, i + 1);
    pm.persistAll();
    const auto sum = arr.checksum();

    for (int op = 0; op < 300; ++op) {
        std::size_t i = rng.below(64);
        std::size_t j = rng.below(64);
        runMaybeCrash(rt, pm, rng,
                      [&](Transaction &tx) { arr.swap(tx, i, j); });
        ASSERT_EQ(arr.checksum(), sum) << "op " << op;
    }
}

TEST(CrashRecovery, QueueStaysWellFormedAcrossCrashes)
{
    Rng rng(103);
    PersistentMemory pm(1 << 22);
    VirtualOs os;
    FaseRuntime rt(pm, os, 1, RecoveryPolicy::Lazy);
    pmds::PmQueue q(pm, 64);
    std::deque<std::uint64_t> model;

    for (int op = 0; op < 300; ++op) {
        if (rng.chance(0.6)) {
            const auto v = static_cast<std::uint64_t>(op);
            const bool ok = runMaybeCrash(
                rt, pm, rng,
                [&](Transaction &tx) { q.enqueue(tx, v); });
            if (ok)
                model.push_back(v);
        } else {
            std::optional<std::uint64_t> got;
            const bool ok = runMaybeCrash(
                rt, pm, rng,
                [&](Transaction &tx) { got = q.dequeue(tx); });
            if (ok && !model.empty())
                model.pop_front();
        }
        ASSERT_TRUE(q.checkInvariants()) << "op " << op;
        ASSERT_EQ(q.size(), model.size()) << "op " << op;
        if (!model.empty()) {
            ASSERT_EQ(q.front(), model.front());
        }
    }
}

TEST(CrashRecovery, HashmapMatchesModelAcrossCrashes)
{
    Rng rng(107);
    PersistentMemory pm(1 << 23);
    VirtualOs os;
    FaseRuntime rt(pm, os, 1, RecoveryPolicy::Lazy);
    pmds::PmHashmap hm(pm, 32);
    std::map<std::uint64_t, std::uint64_t> model;

    for (int op = 0; op < 400; ++op) {
        const std::uint64_t k = rng.below(64);
        if (rng.chance(0.6)) {
            const std::uint64_t v = rng.next();
            if (runMaybeCrash(rt, pm, rng, [&](Transaction &tx) {
                    hm.put(tx, k, v);
                }))
                model[k] = v;
        } else {
            bool erased = false;
            if (runMaybeCrash(rt, pm, rng, [&](Transaction &tx) {
                    erased = hm.erase(tx, k);
                }))
                model.erase(k);
        }
        ASSERT_TRUE(hm.checkInvariants()) << "op " << op;
    }
    ASSERT_EQ(hm.size(), model.size());
    for (const auto &[k, v] : model)
        ASSERT_EQ(hm.lookup(k), v);
}

TEST(CrashRecovery, RbTreeInvariantsSurviveCrashes)
{
    Rng rng(109);
    PersistentMemory pm(1 << 23);
    VirtualOs os;
    FaseRuntime rt(pm, os, 1, RecoveryPolicy::Lazy, 1 << 17);
    pmds::PmRbTree tree(pm);
    std::map<std::uint64_t, std::uint64_t> model;

    for (int op = 0; op < 400; ++op) {
        const std::uint64_t k = 1 + rng.below(96);
        if (rng.chance(0.6)) {
            if (runMaybeCrash(rt, pm, rng, [&](Transaction &tx) {
                    tree.insert(tx, k, k * 2);
                }))
                model[k] = k * 2;
        } else {
            if (runMaybeCrash(rt, pm, rng, [&](Transaction &tx) {
                    tree.erase(tx, k);
                }))
                model.erase(k);
        }
        ASSERT_TRUE(tree.checkInvariants()) << "op " << op;
        ASSERT_EQ(tree.size(), model.size()) << "op " << op;
    }
    for (const auto &[k, v] : model)
        ASSERT_EQ(tree.lookup(k), v);
}

TEST(CrashRecovery, KvStoreNeverExposesTornValues)
{
    Rng rng(113);
    PersistentMemory pm(1 << 24);
    VirtualOs os;
    FaseRuntime rt(pm, os, 1, RecoveryPolicy::Lazy, 1 << 17);
    pmds::KvConfig cfg;
    cfg.buckets = 16;
    cfg.valueBytes = 256;
    pmds::KvStore kv(pm, cfg);
    std::map<std::uint64_t, std::uint8_t> model;

    for (int op = 0; op < 250; ++op) {
        const std::uint64_t k = rng.below(16);
        const auto b = static_cast<std::uint8_t>(rng.next());
        if (runMaybeCrash(rt, pm, rng,
                          [&](Transaction &tx) { kv.set(tx, k, b); }))
            model[k] = b;
        ASSERT_TRUE(kv.checkInvariants()) << "op " << op;
        // get() panics internally on a torn value.
        for (const auto &[mk, mv] : model)
            ASSERT_EQ(kv.lookup(mk), mv) << "op " << op;
    }
}

TEST(CrashRecovery, CommittedFasesAreNeverLost)
{
    // Durability: once runFase returns, a crash must not undo it.
    Rng rng(127);
    PersistentMemory pm(1 << 22);
    VirtualOs os;
    FaseRuntime rt(pm, os, 1, RecoveryPolicy::Lazy);
    Addr cell = pm.alloc(8, 64);
    pm.writeU64(cell, 0);
    pm.persistAll();

    for (std::uint64_t v = 1; v <= 50; ++v) {
        rt.runFase(0,
                   [&](Transaction &tx) { tx.writeU64(cell, v); });
        // Power failure right after commit, losing nothing that was
        // promised durable.
        pm.crash(rng.below(pm.inFlightCount() + 1));
        rt.recoverAll();
        ASSERT_EQ(pm.readU64(cell), v);
    }
}
