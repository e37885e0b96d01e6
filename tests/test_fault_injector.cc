/**
 * @file
 * Tests for the fault-injection subsystem: misspeculation injection
 * through the real speculation buffer -> VirtualOs -> FaseRuntime
 * trap chain under both recovery policies, benign persist delays,
 * and power cuts (including a crash *during* recovery).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <optional>
#include <vector>

#include "faultinject/fault_injector.hh"
#include "faultinject/fault_plan.hh"
#include "runtime/fase_runtime.hh"
#include "runtime/persistent_memory.hh"
#include "runtime/virtual_os.hh"

using namespace pmemspec;
using faultinject::AddrTouchPlan;
using faultinject::FaultInjector;
using faultinject::FaultKind;
using faultinject::NthAccessPlan;
using faultinject::PowerCutPlan;
using faultinject::PowerFailure;
using runtime::FaseRuntime;
using runtime::PersistentMemory;
using runtime::RecoveryPolicy;
using runtime::Transaction;
using runtime::VirtualOs;

namespace
{

struct Harness
{
    PersistentMemory pm{1 << 20};
    VirtualOs os;
    FaseRuntime rt;
    FaultInjector inj;
    Addr data;

    explicit Harness(RecoveryPolicy policy = RecoveryPolicy::Lazy)
        : rt(pm, os, 1, policy), inj(pm, os), data(pm.alloc(256, 64))
    {
        for (Addr a = data; a < data + 256; a += 8)
            pm.writeU64(a, 1);
        pm.persistAll();
        // Attach only after setup so the seed writes are invisible
        // to armed plans.
        inj.attach();
    }
};

/** Never fires; follows the persist queue through a run. Each write's
 *  entry is copied as it is queued; a write that starts a fresh fill
 *  (the queue was empty) restarts the copy and keeps the durable
 *  image the fill lands on. */
class QueueProbe : public faultinject::FaultPlan
{
  public:
    explicit QueueProbe(const PersistentMemory &pm) : pm(pm) {}

    std::optional<faultinject::FaultAction>
    onAccess(const faultinject::AccessInfo &info) override
    {
        if (info.op != runtime::MemOp::Write)
            return std::nullopt;
        const std::size_t depth = pm.inFlightCount();
        ++writes;
        maxDepth = std::max(maxDepth, depth);
        if (depth == 1) {
            ++fills;
            base.assign(pm.persistedImage(),
                        pm.persistedImage() + pm.size());
            fill.clear();
        }
        fill.push_back(pm.pendingEntry(depth - 1));
        return std::nullopt;
    }

    const PersistentMemory &pm;
    std::size_t writes = 0;
    std::size_t maxDepth = 0;
    std::size_t fills = 0;
    std::vector<std::uint8_t> base;
    std::vector<PersistentMemory::Pending> fill;
};

} // namespace

TEST(FaultInjector, LoadStaleTrapsThroughOsAndReexecutesLazily)
{
    Harness h;
    h.inj.addPlan(
        std::make_unique<AddrTouchPlan>(FaultKind::LoadStale, h.data));

    h.rt.runFase(0, [&](Transaction &tx) {
        tx.writeU64(h.data, 42);
    });

    // The buffer detected the stale load, the OS relayed it, the
    // runtime aborted once and re-executed to commit.
    EXPECT_EQ(h.inj.loadStalesInjected(), 1u);
    EXPECT_EQ(h.inj.interruptsRaised(), 1u);
    EXPECT_EQ(h.os.delivered(), 1u);
    EXPECT_EQ(h.inj.specBuffer().loadMisspecs.value(), 1u);
    EXPECT_EQ(h.rt.fasesAborted(), 1u);
    EXPECT_EQ(h.rt.fasesCommitted(), 1u);
    EXPECT_EQ(h.pm.readU64(h.data), 42u);
    EXPECT_EQ(h.pm.inFlightCount(), 0u);
}

TEST(FaultInjector, LoadStaleUnderEagerAbortsAtNextPoll)
{
    Harness h(RecoveryPolicy::Eager);
    h.inj.addPlan(
        std::make_unique<AddrTouchPlan>(FaultKind::LoadStale, h.data));

    int runs = 0;
    bool past_second_write = false;
    h.rt.runFase(0, [&](Transaction &tx) {
        ++runs;
        tx.writeU64(h.data, 7); // fault fires inside this access
        tx.writeU64(h.data + 8, 8); // first attempt aborts here
        if (runs == 1)
            past_second_write = true;
    });

    EXPECT_EQ(runs, 2);
    EXPECT_FALSE(past_second_write);
    EXPECT_EQ(h.rt.fasesAborted(), 1u);
    EXPECT_EQ(h.rt.fasesCommitted(), 1u);
    EXPECT_EQ(h.pm.readU64(h.data), 7u);
    EXPECT_EQ(h.pm.readU64(h.data + 8), 8u);
}

TEST(FaultInjector, StoreWawTrapsThroughOs)
{
    Harness h;
    h.inj.addPlan(
        std::make_unique<AddrTouchPlan>(FaultKind::StoreWaw, h.data));

    h.rt.runFase(0, [&](Transaction &tx) {
        tx.writeU64(h.data, 21);
    });

    EXPECT_EQ(h.inj.storeWawsInjected(), 1u);
    EXPECT_EQ(h.inj.interruptsRaised(), 1u);
    EXPECT_EQ(h.inj.specBuffer().storeMisspecs.value(), 1u);
    EXPECT_EQ(h.rt.fasesAborted(), 1u);
    EXPECT_EQ(h.rt.fasesCommitted(), 1u);
    EXPECT_EQ(h.pm.readU64(h.data), 21u);
}

TEST(FaultInjector, StoreWawUnderEagerAbortsAtNextPoll)
{
    Harness h(RecoveryPolicy::Eager);
    h.inj.addPlan(
        std::make_unique<AddrTouchPlan>(FaultKind::StoreWaw, h.data));

    int runs = 0;
    h.rt.runFase(0, [&](Transaction &tx) {
        ++runs;
        tx.writeU64(h.data, 31);
        tx.writeU64(h.data + 8, 32); // first attempt aborts here
    });

    EXPECT_EQ(runs, 2);
    EXPECT_EQ(h.inj.storeWawsInjected(), 1u);
    EXPECT_EQ(h.rt.fasesAborted(), 1u);
    EXPECT_EQ(h.rt.fasesCommitted(), 1u);
    EXPECT_EQ(h.pm.readU64(h.data), 31u);
    EXPECT_EQ(h.pm.readU64(h.data + 8), 32u);
}

TEST(FaultInjector, DelayedPersistAloneIsBenign)
{
    Harness h;
    // A persist held back with no racing PM read must not trap
    // (Section 5.1: only the WriteBack-Read-Persist pattern does).
    h.inj.addPlan(std::make_unique<NthAccessPlan>(
        FaultKind::PersistDelay, 1, nsToTicks(100)));

    h.rt.runFase(0, [&](Transaction &tx) {
        tx.writeU64(h.data, 13);
    });

    EXPECT_EQ(h.inj.persistDelaysInjected(), 1u);
    EXPECT_EQ(h.inj.interruptsRaised(), 0u);
    EXPECT_EQ(h.os.delivered(), 0u);
    EXPECT_EQ(h.rt.fasesAborted(), 0u);
    EXPECT_EQ(h.rt.fasesCommitted(), 1u);
}

TEST(FaultInjector, PowerCutUnwindsAndRecoveryRestoresPreState)
{
    Harness h;
    h.inj.addPlan(std::make_unique<PowerCutPlan>(3));

    bool crashed = false;
    try {
        h.rt.runFase(0, [&](Transaction &tx) {
            tx.writeU64(h.data, 50);
            tx.writeU64(h.data + 64, 51);
            tx.writeU64(h.data + 128, 52);
        });
    } catch (const PowerFailure &pf) {
        crashed = true;
        // The plan fired as persist 4 was queued and kept the first 3.
        EXPECT_EQ(pf.durablePrefix, 3u);
    }
    EXPECT_TRUE(crashed);
    EXPECT_FALSE(h.rt.inFase(0));
    EXPECT_EQ(h.inj.powerCutsInjected(), 1u);

    h.inj.clearPlans();
    h.rt.recoverAll();
    EXPECT_EQ(h.pm.readU64(h.data), 1u);
    EXPECT_EQ(h.pm.readU64(h.data + 64), 1u);
    EXPECT_EQ(h.pm.readU64(h.data + 128), 1u);
}

// A misspeculation abort rolls its attempt back and ends in a drain
// (UndoLog::recover's persistAll() empties the persist queue). A
// power cut armed across that drain must still mean crash(k): it
// fires at the write that makes the queue k+1 deep, keeping exactly
// the first k persists of the queue and losing its frontier. A k the
// queue never reaches does not fire, and the FASE commits.
TEST(FaultInjector, PowerCutAcrossAnAbortDrainKeepsItsPrefix)
{
    auto fase = [](Harness &h) {
        h.rt.runFase(0, [&](Transaction &tx) {
            tx.writeU64(h.data, 50);
            tx.writeU64(h.data + 64, 51);
            tx.writeU64(h.data + 128, 52);
        });
    };
    // The first attempt's first access raises a LoadStale; under Lazy
    // recovery the attempt runs on and aborts at its commit.
    auto armStale = [](Harness &h) {
        h.inj.addPlan(
            std::make_unique<NthAccessPlan>(FaultKind::LoadStale, 1));
    };

    std::size_t maxDepth = 0, writes = 0;
    {
        Harness h;
        armStale(h);
        auto probe = std::make_unique<QueueProbe>(h.pm);
        const QueueProbe &p = *probe;
        h.inj.addPlan(std::move(probe));
        fase(h);
        ASSERT_EQ(h.rt.fasesAborted(), 1u);
        ASSERT_EQ(p.fills, 2u) << "the abort must drain the queue";
        maxDepth = p.maxDepth;
        writes = p.writes;
    }
    ASSERT_GT(writes, maxDepth);

    std::size_t fired = 0;
    for (std::size_t k = 0; k <= writes + 1; ++k) {
        SCOPED_TRACE("k " + std::to_string(k));
        Harness h;
        armStale(h);
        // The probe, armed before the cut, has seen the frontier
        // queued when the cut fires on the same access.
        auto probe = std::make_unique<QueueProbe>(h.pm);
        const QueueProbe &p = *probe;
        h.inj.addPlan(std::move(probe));
        h.inj.addPlan(std::make_unique<PowerCutPlan>(k));
        std::optional<PowerFailure> cut;
        try {
            fase(h);
        } catch (const PowerFailure &pf) {
            cut = pf;
        }
        EXPECT_EQ(cut.has_value(), k < maxDepth);
        if (!cut) {
            EXPECT_EQ(h.inj.powerCutsInjected(), 0u);
            EXPECT_EQ(h.rt.fasesCommitted(), 1u);
            EXPECT_EQ(h.pm.readU64(h.data + 128), 52u);
            continue;
        }
        ++fired;
        EXPECT_EQ(cut->durablePrefix, k);
        ASSERT_EQ(p.fill.size(), k + 1);
        // Durable: the image the fill landed on plus its first k
        // persists, and nothing of the frontier, persist k+1.
        std::vector<std::uint8_t> want = p.base;
        for (std::size_t i = 0; i < k; ++i)
            std::memcpy(want.data() + p.fill[i].addr,
                        p.fill[i].bytes.data(), p.fill[i].bytes.size());
        EXPECT_EQ(std::memcmp(h.pm.persistedImage(), want.data(),
                              want.size()),
                  0);
        const PersistentMemory::Pending &frontier = p.fill[k];
        if (std::memcmp(want.data() + frontier.addr,
                        frontier.bytes.data(), frontier.bytes.size())) {
            EXPECT_NE(std::memcmp(h.pm.persistedImage() + frontier.addr,
                                  frontier.bytes.data(),
                                  frontier.bytes.size()),
                      0)
                << "the frontier is durable";
        }
    }
    EXPECT_EQ(fired, maxDepth);
}

TEST(FaultInjector, CrashDuringRecoveryIsIdempotent)
{
    // A second power failure in the middle of recovery must leave a
    // state from which recovery still restores the pre-FASE image:
    // undo replay is idempotent, so any durable prefix of recovery's
    // own persist stream is a valid starting point.
    for (std::size_t first_cut = 2; first_cut <= 8; ++first_cut) {
        for (std::size_t second_cut = 0; second_cut <= 3;
             ++second_cut) {
            Harness h;
            h.inj.addPlan(std::make_unique<PowerCutPlan>(first_cut));
            EXPECT_THROW(
                h.rt.runFase(0,
                             [&](Transaction &tx) {
                                 tx.writeU64(h.data, 60);
                                 tx.writeU64(h.data + 64, 61);
                                 tx.writeU64(h.data + 128, 62);
                             }),
                PowerFailure);

            // Crash again part-way through the recovery writes.
            h.inj.clearPlans();
            h.inj.addPlan(
                std::make_unique<PowerCutPlan>(second_cut));
            try {
                h.rt.recoverAll();
            } catch (const PowerFailure &) {
            }
            h.inj.clearPlans();
            h.rt.recoverAll(); // the reboot's recovery pass

            EXPECT_EQ(h.pm.readU64(h.data), 1u)
                << "cuts " << first_cut << "/" << second_cut;
            EXPECT_EQ(h.pm.readU64(h.data + 64), 1u);
            EXPECT_EQ(h.pm.readU64(h.data + 128), 1u);
            h.pm.persistAll();
            // And another recovery pass stays a no-op.
            h.rt.recoverAll();
            EXPECT_EQ(h.pm.readU64(h.data), 1u);
        }
    }
}

TEST(FaultInjector, PlansFireAtMostOnce)
{
    Harness h;
    h.inj.addPlan(
        std::make_unique<AddrTouchPlan>(FaultKind::LoadStale, h.data));
    for (int i = 0; i < 3; ++i) {
        h.rt.runFase(0, [&](Transaction &tx) {
            tx.writeU64(h.data, 100 + i);
        });
    }
    EXPECT_EQ(h.inj.loadStalesInjected(), 1u);
    EXPECT_EQ(h.rt.fasesAborted(), 1u);
    EXPECT_EQ(h.rt.fasesCommitted(), 3u);
}

TEST(FaultInjector, DetachStopsInjection)
{
    Harness h;
    h.inj.addPlan(
        std::make_unique<AddrTouchPlan>(FaultKind::LoadStale, h.data));
    h.inj.detach();
    h.rt.runFase(0, [&](Transaction &tx) {
        tx.writeU64(h.data, 5);
    });
    EXPECT_EQ(h.inj.loadStalesInjected(), 0u);
    EXPECT_EQ(h.rt.fasesAborted(), 0u);
}

// A plan counts the accesses it sees from its own arming: one armed
// after the injector has seen accesses with no plan fires at the
// same access counts as one armed from the start.
TEST(FaultInjector, PlanArmedLateFiresAtTheSameAccessCounts)
{
    auto firesAt = [](std::size_t accesses_before_arming) {
        Harness h;
        for (std::size_t i = 0; i < accesses_before_arming; ++i)
            h.pm.writeU64(h.data + 8 * (i % 32), i);
        h.inj.addPlan(std::make_unique<faultinject::PeriodicPlan>(
            FaultKind::PersistDelay, 3, 4, 10));
        std::vector<std::size_t> fires;
        for (std::size_t i = 1; i <= 20; ++i) {
            const auto before = h.inj.persistDelaysInjected();
            if (i % 2)
                h.pm.writeU64(h.data + 8 * (i % 32), i);
            else
                (void)h.pm.readU64(h.data + 8 * (i % 32));
            if (h.inj.persistDelaysInjected() != before)
                fires.push_back(i);
        }
        return fires;
    };
    const std::vector<std::size_t> want{3, 6, 9, 12};
    EXPECT_EQ(firesAt(0), want);
    EXPECT_EQ(firesAt(7), want);
}

TEST(FaultInjector, TornWriteCutsPowerWithATornFrontier)
{
    Harness h;
    // The third persist of the FASE below is the 64-byte undo-log
    // payload... but the plan does not need to know that: it tears
    // whatever persist sits at the frontier of prefix 0 -- here the
    // first log payload write (8 words wide). Keep only its first
    // word durable.
    // The probe, armed first, sees the frontier queued before the
    // torn cut fires on the same access.
    auto probe = std::make_unique<QueueProbe>(h.pm);
    const QueueProbe &p = *probe;
    h.inj.addPlan(std::move(probe));
    h.inj.addPlan(std::make_unique<PowerCutPlan>(0, 0x1));

    bool torn = false;
    try {
        h.rt.runFase(0, [&](Transaction &tx) {
            tx.writeU64(h.data, 70);
        });
        FAIL() << "expected PowerFailure";
    } catch (const PowerFailure &pf) {
        torn = pf.torn;
        EXPECT_EQ(pf.durablePrefix, 0u);
    }
    EXPECT_TRUE(torn);
    ASSERT_EQ(p.fill.size(), 1u);
    EXPECT_EQ(PersistentMemory::entryWords(p.fill[0]), 8u)
        << "64-byte log payload = 8 words";
    EXPECT_EQ(h.inj.powerCutsInjected(), 1u);

    // The torn residue is frontier garbage the checksummed log must
    // discard; the data itself never changed.
    h.inj.clearPlans();
    const auto rep = h.rt.recoverAll();
    EXPECT_TRUE(rep.consistent);
    EXPECT_EQ(h.pm.readU64(h.data), 1u);
}

TEST(FaultInjector, BitFlipIsSilentUntilRecoveryVerifies)
{
    Harness h;
    // Flip a bit in the undo log's first counted payload word right
    // after it is written (access 1 = the payload pm.write).
    const auto [log_base, log_bytes] = h.rt.logRegion(0);
    (void)log_bytes;
    h.inj.addPlan(std::make_unique<AddrTouchPlan>(
        FaultKind::BitFlip, log_base + 16 + 32, 0, 0x1));

    // The FASE runs to commit: bit rot raises no trap, no abort.
    h.rt.runFase(0, [&](Transaction &tx) {
        tx.writeU64(h.data, 80);
    });
    EXPECT_EQ(h.inj.bitFlipsInjected(), 1u);
    EXPECT_EQ(h.inj.interruptsRaised(), 0u);
    EXPECT_EQ(h.rt.fasesAborted(), 0u);
    EXPECT_EQ(h.pm.readU64(h.data), 80u);
}

TEST(FaultInjector, BitFlipInCountedEntryEscalatesOnRecovery)
{
    Harness h;
    const auto [log_base, log_bytes] = h.rt.logRegion(0);
    (void)log_bytes;
    // Cut power mid-FASE with the entry counted, then rot it: the
    // reboot's recovery must refuse, not replay garbage.
    h.inj.addPlan(std::make_unique<PowerCutPlan>(6));
    EXPECT_THROW(h.rt.runFase(0,
                              [&](Transaction &tx) {
                                  tx.writeU64(h.data, 90);
                              }),
                 PowerFailure);
    h.inj.clearPlans();
    h.inj.injectBitFlip(log_base + 16 + 32, 0x2);
    EXPECT_EQ(h.inj.bitFlipsInjected(), 1u);
    EXPECT_THROW(h.rt.recoverAll(), runtime::UnrecoverableCorruption);
    EXPECT_FALSE(h.rt.lastRecoveryReport().consistent);
}

TEST(FaultInjector, PoisonPlanMakesReadsThrowMediaError)
{
    Harness h;
    h.inj.addPlan(std::make_unique<AddrTouchPlan>(
        FaultKind::Poison, h.data + 64));

    // Poison alone is not a trap: the plan fires on the first touch
    // of the block (after the access applied) and the damage only
    // surfaces at the next read of the word.
    h.pm.writeU64(h.data + 64, 3);
    EXPECT_EQ(h.inj.poisonsInjected(), 1u);
    EXPECT_EQ(h.inj.interruptsRaised(), 0u);
    EXPECT_THROW(h.pm.readU64(h.data + 64), runtime::MediaError);
    // A fresh full-word store remaps (heals) the line.
    h.pm.writeU64(h.data + 64, 4);
    EXPECT_EQ(h.pm.readU64(h.data + 64), 4u);
}
