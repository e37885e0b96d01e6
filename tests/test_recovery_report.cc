/**
 * @file
 * Tests for the structured RecoveryReport and the fail-safe recovery
 * contract of FaseRuntime:
 *
 *  - recoverAll() reports exactly what it replayed/discarded and the
 *    result is stable under re-recovery (idempotency): a crash in the
 *    middle of recovery followed by another recovery ends in the same
 *    durable state as an uninterrupted recovery;
 *  - corruption in a counted log entry escalates to
 *    UnrecoverableCorruption carrying the same report -- recovery
 *    refuses rather than replaying garbage.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <memory>

#include "common/trace.hh"
#include "faultinject/fault_injector.hh"
#include "faultinject/fault_plan.hh"
#include "runtime/fase_runtime.hh"
#include "runtime/persistent_memory.hh"
#include "runtime/virtual_os.hh"

using namespace pmemspec;
using faultinject::FaultInjector;
using faultinject::PowerCutPlan;
using faultinject::PowerFailure;
using runtime::FaseRuntime;
using runtime::PersistentMemory;
using runtime::RecoveryPolicy;
using runtime::RecoveryReport;
using runtime::Transaction;
using runtime::UnrecoverableCorruption;

namespace
{

struct Harness
{
    PersistentMemory pm{1 << 20};
    runtime::VirtualOs os;
    FaseRuntime rt{pm, os, 1, RecoveryPolicy::Lazy, 1 << 14};
    FaultInjector inj{pm, os};
    Addr data;

    Harness() : data(pm.alloc(192, 64))
    {
        for (Addr a = data; a < data + 192; a += 8)
            pm.writeU64(a, 1);
        pm.persistAll();
        inj.attach();
    }

    /** The FASE under test: three logged block updates. */
    void
    fase(Transaction &tx)
    {
        tx.writeU64(data, 2);
        tx.writeU64(data + 64, 2);
        tx.writeU64(data + 128, 2);
    }

    /** Run the FASE with a power cut at persist prefix k.
     *  @return true if the cut fired (false: the FASE committed). */
    bool
    crashAt(std::size_t k)
    {
        inj.clearPlans();
        inj.addPlan(std::make_unique<PowerCutPlan>(k));
        bool crashed = false;
        try {
            rt.runFase(0, [this](Transaction &tx) { fase(tx); });
        } catch (const PowerFailure &) {
            crashed = true;
        }
        inj.clearPlans();
        return crashed;
    }
};

} // namespace

TEST(RecoveryReport, CleanRecoveryReportsReplayedEntries)
{
    Harness h;
    // Crash late enough that at least one log entry is counted.
    ASSERT_TRUE(h.crashAt(8));
    const RecoveryReport rep = h.rt.recoverAll();
    EXPECT_TRUE(rep.consistent);
    EXPECT_GE(rep.entriesReplayed, 1u);
    EXPECT_EQ(rep.entriesDiscardedCorrupt, 0u);
    EXPECT_EQ(rep.poisonedWordsQuarantined, 0u);
    EXPECT_TRUE(rep.diagnostics.empty());
    EXPECT_TRUE(rep == h.rt.lastRecoveryReport());
    // All-or-nothing: the FASE vanished.
    EXPECT_EQ(h.pm.readU64(h.data), 1u);
    EXPECT_EQ(h.pm.readU64(h.data + 64), 1u);
    EXPECT_EQ(h.pm.readU64(h.data + 128), 1u);
}

TEST(RecoveryReport, RecoveryAfterRecoveryIsANoOp)
{
    Harness h;
    ASSERT_TRUE(h.crashAt(8));
    h.rt.recoverAll();
    const RecoveryReport again = h.rt.recoverAll();
    EXPECT_TRUE(again.consistent);
    EXPECT_EQ(again.entriesReplayed, 0u);
    EXPECT_EQ(again.entriesDiscardedTorn, 0u);
    EXPECT_EQ(h.pm.readU64(h.data), 1u);
}

// Satellite (d): crash *during recovery*, recover again -- the final
// durable state matches an uninterrupted recovery, and re-running the
// same crash schedule reproduces the identical report (determinism).
TEST(RecoveryReport, RecoveryIsIdempotentUnderCrashes)
{
    Harness h;
    ASSERT_TRUE(h.crashAt(8));
    const auto crashed_state = h.pm.snapshot();

    // Reference: uninterrupted recovery from the crashed state.
    const RecoveryReport ref_report = h.rt.recoverAll();
    h.pm.persistAll();
    std::vector<std::uint8_t> ref_image(
        h.pm.persistedImage(), h.pm.persistedImage() + h.pm.size());

    // Now cut recovery's own persist stream at every prefix j. The
    // enumeration terminates the explorer's way: a plan that never
    // fires means recovery's stream fits in j persists.
    for (std::size_t j = 0;; ++j) {
        ASSERT_LT(j, std::size_t{1} << 12) << "did not converge";
        h.pm.restore(crashed_state);

        h.inj.clearPlans();
        h.inj.addPlan(std::make_unique<PowerCutPlan>(j));
        bool cut = false;
        RecoveryReport first;
        try {
            first = h.rt.recoverAll();
        } catch (const PowerFailure &) {
            cut = true;
        }
        h.inj.clearPlans();
        if (!cut)
            break; // recovery completed: every prefix explored

        // Second recovery must finish the job...
        const RecoveryReport second = h.rt.recoverAll();
        EXPECT_TRUE(second.consistent) << "cut at " << j;
        h.pm.persistAll();
        EXPECT_EQ(std::memcmp(h.pm.persistedImage(), ref_image.data(),
                              h.pm.size()),
                  0)
            << "durable state diverged after recovery cut at " << j;

        // ...and the whole schedule is deterministic: replaying
        // crash-at-j + recover yields the identical report.
        h.pm.restore(crashed_state);
        h.inj.addPlan(std::make_unique<PowerCutPlan>(j));
        try {
            h.rt.recoverAll();
            FAIL() << "cut at " << j << " fired once but not twice";
        } catch (const PowerFailure &) {
        }
        h.inj.clearPlans();
        const RecoveryReport replayed = h.rt.recoverAll();
        EXPECT_TRUE(replayed == second)
            << "recovery report not deterministic at cut " << j;

        // A cut before any replay persisted leaves the log intact,
        // so the re-recovery sees exactly the reference work.
        if (j == 0) {
            EXPECT_TRUE(second == ref_report);
        }
    }
}

TEST(RecoveryReport, CorruptCountedEntryEscalates)
{
    Harness h;
    ASSERT_TRUE(h.crashAt(8));
    // Rot the first counted entry's payload in thread 0's log.
    const auto [log_base, log_bytes] = h.rt.logRegion(0);
    (void)log_bytes;
    h.pm.corruptWord(log_base + 16 + 32, 0x1);

    try {
        h.rt.recoverAll();
        FAIL() << "expected UnrecoverableCorruption";
    } catch (const UnrecoverableCorruption &e) {
        EXPECT_FALSE(e.report.consistent);
        EXPECT_GE(e.report.entriesDiscardedCorrupt, 1u);
        EXPECT_EQ(e.report.entriesReplayed, 0u);
        ASSERT_FALSE(e.report.diagnostics.empty());
        EXPECT_NE(e.report.diagnostics.front().find("thread 0"),
                  std::string::npos)
            << e.report.diagnostics.front();
        EXPECT_TRUE(e.report == h.rt.lastRecoveryReport());
    }
    // Fail-safe: no partial replay reached the data.
    EXPECT_TRUE(h.pm.readU64(h.data) == 1u ||
                h.pm.readU64(h.data) == 2u);
}

// A misspeculation storm drives a FASE into its abort budget; the
// trap window captured at the *signal* must survive the budget
// exception and come back attached to the recoverAll() report -- the
// post-mortem must show what the hardware saw, not an empty window.
TEST(RecoveryReport, AbortBudgetKeepsTrapWindowThroughRecovery)
{
    PersistentMemory pm(1 << 20);
    runtime::VirtualOs os;
    FaseRuntime rt(pm, os, 1, RecoveryPolicy::Lazy, 1 << 14);
    FaultInjector inj(pm, os);

    trace::Config tcfg;
    tcfg.flags = trace::FlagFaseRuntime | trace::FlagFaultInject;
    tcfg.flightRecorder = true;
    trace::Manager mgr(tcfg, 0);
    rt.setTraceManager(&mgr);
    inj.setTraceManager(&mgr);

    const Addr cell = pm.alloc(8, 64);
    pm.writeU64(cell, 1);
    pm.persistAll();
    inj.attach();

    // Every 2nd access raises a LoadStale interrupt: the FASE can
    // never commit and must exhaust the (small) abort budget.
    rt.setAbortBudget(4);
    inj.addPlan(std::make_unique<faultinject::PeriodicPlan>(
        faultinject::FaultKind::LoadStale, 2, 1000));

    bool exhausted = false;
    try {
        rt.runFase(0, [&](Transaction &tx) { tx.writeU64(cell, 2); });
    } catch (const runtime::AbortBudgetExhausted &e) {
        exhausted = true;
        EXPECT_EQ(e.aborts, 4u);
    }
    ASSERT_TRUE(exhausted);
    inj.clearPlans();

    const RecoveryReport rep = rt.recoverAll();
    EXPECT_TRUE(rep.consistent);
    ASSERT_FALSE(rep.trapWindow.empty())
        << "trap window lost across AbortBudgetExhausted -> "
           "recoverAll";
    // The window is the formatted flight tail around the last trap;
    // it must actually mention the runtime trap event.
    bool mentions_trap = false;
    for (const auto &line : rep.trapWindow)
        mentions_trap = mentions_trap ||
                        line.find("RtTrap") != std::string::npos;
    EXPECT_TRUE(mentions_trap) << rep.trapWindow.front();
    EXPECT_TRUE(rep == rt.lastRecoveryReport());
    // The final attempt was rolled back before the throw and the
    // resync found nothing extra: the pre-FASE value stands.
    EXPECT_EQ(pm.readU64(cell), 1u);
}

TEST(RecoveryReport, MultiThreadReportsAggregate)
{
    PersistentMemory pm(1 << 20);
    runtime::VirtualOs os;
    FaseRuntime rt(pm, os, 2, RecoveryPolicy::Lazy, 1 << 14);
    FaultInjector inj(pm, os);
    const Addr a = pm.alloc(128, 64);
    pm.writeU64(a, 1);
    pm.writeU64(a + 64, 1);
    pm.persistAll();
    inj.attach();

    // Thread 1 commits; thread 0 crashes mid-FASE afterwards.
    rt.runFase(1, [&](Transaction &tx) { tx.writeU64(a + 64, 5); });
    pm.persistAll();
    inj.addPlan(std::make_unique<PowerCutPlan>(6));
    try {
        rt.runFase(0, [&](Transaction &tx) { tx.writeU64(a, 5); });
        FAIL() << "expected PowerFailure";
    } catch (const PowerFailure &) {
    }
    inj.clearPlans();

    const RecoveryReport rep = rt.recoverAll();
    EXPECT_TRUE(rep.consistent);
    EXPECT_GE(rep.entriesReplayed, 1u);
    EXPECT_EQ(pm.readU64(a), 1u) << "thread 0's FASE rolled back";
    EXPECT_EQ(pm.readU64(a + 64), 5u) << "thread 1's commit survives";
}
