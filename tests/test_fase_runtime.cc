/**
 * @file
 * Unit tests for the failure-atomic runtime: commit, the per-thread
 * misspeculation flag, lazy and eager recovery (Section 6.2), and
 * crash recovery across all threads.
 */

#include <gtest/gtest.h>

#include "faultinject/fault_injector.hh"
#include "runtime/fase_runtime.hh"
#include "runtime/persistent_memory.hh"
#include "runtime/virtual_os.hh"

using namespace pmemspec;
using runtime::FaseRuntime;
using runtime::LogGranularity;
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
    Addr data;

    explicit Harness(RecoveryPolicy policy = RecoveryPolicy::Lazy)
        : rt(pm, os, 2, policy), data(pm.alloc(128, 64))
    {
        for (Addr a = data; a < data + 128; a += 8)
            pm.writeU64(a, 1);
        pm.persistAll();
    }
};

} // namespace

TEST(FaseRuntime, CommitMakesWritesDurable)
{
    Harness h;
    h.rt.runFase(0, [&](Transaction &tx) {
        tx.writeU64(h.data, 42);
    });
    EXPECT_EQ(h.rt.fasesCommitted(), 1u);
    EXPECT_EQ(h.pm.inFlightCount(), 0u); // durability barrier ran
    std::uint64_t persisted;
    h.pm.read(h.data, &persisted, 8);
    EXPECT_EQ(persisted, 42u);
}

TEST(FaseRuntime, MisspecFlagAbortsAtCommitAndRetries)
{
    Harness h;
    int runs = 0;
    h.rt.runFase(0, [&](Transaction &tx) {
        tx.writeU64(h.data, 99);
        if (++runs == 1) {
            // Virtual power failure mid-FASE (lazy recovery: the
            // flag is only checked at the commit point).
            h.os.raiseMisspecInterrupt(h.data);
            EXPECT_TRUE(h.rt.misspecFlag(0));
        }
    });
    EXPECT_EQ(runs, 2); // aborted once, then committed
    EXPECT_EQ(h.rt.fasesAborted(), 1u);
    EXPECT_EQ(h.rt.fasesCommitted(), 1u);
    EXPECT_EQ(h.pm.readU64(h.data), 99u);
}

TEST(FaseRuntime, AbortRestoresIntermediateData)
{
    Harness h;
    int runs = 0;
    h.rt.runFase(0, [&](Transaction &tx) {
        ++runs;
        if (runs == 1) {
            tx.writeU64(h.data, 1234);
            h.os.raiseMisspecInterrupt(h.data);
        } else {
            // The abort handler must have undone the first attempt.
            EXPECT_EQ(tx.readU64(h.data), 1u);
            tx.writeU64(h.data, 5678);
        }
    });
    EXPECT_EQ(h.pm.readU64(h.data), 5678u);
}

TEST(FaseRuntime, EagerRecoveryAbortsAtNextRuntimeEntry)
{
    Harness h(RecoveryPolicy::Eager);
    int runs = 0;
    bool reached_after = false;
    h.rt.runFase(0, [&](Transaction &tx) {
        ++runs;
        tx.writeU64(h.data, 7);
        if (runs == 1) {
            h.os.raiseMisspecInterrupt(h.data);
            // The next transactional access aborts eagerly; this
            // line must never be reached on the first attempt.
            tx.readU64(h.data);
            reached_after = true;
        }
    });
    EXPECT_EQ(runs, 2);
    EXPECT_FALSE(reached_after);
    EXPECT_EQ(h.rt.fasesAborted(), 1u);
}

TEST(FaseRuntime, SignalOnlyFlagsThreadsInsideFases)
{
    Harness h;
    int runs = 0;
    // Thread 1 is idle; a signal must not flag it.
    h.rt.runFase(0, [&](Transaction &tx) {
        tx.writeU64(h.data, 3);
        if (++runs == 1) {
            h.os.raiseMisspecInterrupt(h.data);
            EXPECT_TRUE(h.rt.misspecFlag(0));
            EXPECT_FALSE(h.rt.misspecFlag(1));
        }
    });
    // One abort+retry for thread 0 happened.
    EXPECT_EQ(h.rt.fasesCommitted(), 1u);
    EXPECT_EQ(h.rt.fasesAborted(), 1u);
}

TEST(FaseRuntime, FlagClearedAtFaseBegin)
{
    Harness h;
    int runs = 0;
    h.rt.runFase(0, [&](Transaction &tx) {
        tx.writeU64(h.data, 1);
        if (++runs == 1)
            h.os.raiseMisspecInterrupt(h.data);
    });
    // The retry cleared the flag and committed.
    EXPECT_FALSE(h.rt.misspecFlag(0));
    EXPECT_EQ(runs, 2);
}

TEST(FaseRuntime, ExceptionsWithFlagSetAreSuppressed)
{
    // Section 6.2.1: stale data can cause exceptions mid-FASE; the
    // handler suppresses them if misspeculation was flagged.
    Harness h;
    int runs = 0;
    h.rt.runFase(0, [&](Transaction &tx) {
        ++runs;
        tx.writeU64(h.data, 11);
        if (runs == 1) {
            h.os.raiseMisspecInterrupt(h.data);
            throw std::runtime_error("segfault from stale pointer");
        }
    });
    EXPECT_EQ(runs, 2);
    EXPECT_EQ(h.rt.fasesCommitted(), 1u);
}

TEST(FaseRuntime, RealExceptionsPropagate)
{
    Harness h;
    EXPECT_THROW(h.rt.runFase(0,
                              [&](Transaction &) {
                                  throw std::runtime_error("real bug");
                              }),
                 std::runtime_error);
    EXPECT_FALSE(h.rt.inFase(0));
}

TEST(FaseRuntime, PowerCutWithFlagSetPropagates)
{
    // Stale-data suppression covers exceptions a misled FASE raises
    // itself, never a power loss: a cut armed while the flag is set
    // must reach the caller's recovery instead of re-running the FASE
    // on the rebooted PM.
    Harness h;
    faultinject::FaultInjector inj(h.pm, h.os);
    int runs = 0;
    EXPECT_THROW(h.rt.runFase(0,
                              [&](Transaction &tx) {
                                  ++runs;
                                  tx.writeU64(h.data, 55);
                                  h.os.raiseMisspecInterrupt(h.data);
                                  EXPECT_TRUE(h.rt.misspecFlag(0));
                                  inj.injectPowerCut(0);
                              }),
                 faultinject::PowerFailure);
    EXPECT_EQ(runs, 1);
    EXPECT_FALSE(h.rt.inFase(0));
    EXPECT_EQ(h.rt.fasesCommitted(), 0u);
    EXPECT_EQ(inj.powerCutsInjected(), 1u);
    h.rt.recoverAll();
    EXPECT_EQ(h.pm.readU64(h.data), 1u);
}

TEST(FaseRuntime, CrashDuringFaseRecoversOldState)
{
    Harness h;
    // Simulate power failure mid-FASE by crashing from inside.
    try {
        h.rt.runFase(0, [&](Transaction &tx) {
            tx.writeU64(h.data, 77);
            tx.writeU64(h.data + 8, 78);
            h.pm.crash(h.pm.inFlightCount()); // all writes persisted
            throw std::runtime_error("power failure");
        });
    } catch (const std::runtime_error &) {
    }
    h.rt.recoverAll();
    EXPECT_EQ(h.pm.readU64(h.data), 1u);
    EXPECT_EQ(h.pm.readU64(h.data + 8), 1u);
}

TEST(FaseRuntime, WordGranularityLogsEveryWrite)
{
    PersistentMemory pm(1 << 20);
    VirtualOs os;
    FaseRuntime rt(pm, os, 1, RecoveryPolicy::Lazy, 1 << 16,
                   LogGranularity::Word);
    Addr data = pm.alloc(64, 64);
    pm.persistAll();
    // Two writes to the same block: Word granularity logs both.
    std::size_t log_writes = 0;
    auto [log_base, log_len] = rt.logRegion(0);
    pm.setObserver([&](runtime::MemOp op, Addr a, std::uint32_t) {
        if (op == runtime::MemOp::Write && a >= log_base &&
            a < log_base + log_len)
            ++log_writes;
    });
    rt.runFase(0, [&](Transaction &tx) {
        tx.writeU64(data, 1);
        tx.writeU64(data + 8, 2);
    });
    pm.setObserver(nullptr);
    // Each logRange writes header+payload+count: > 1 write each.
    EXPECT_GE(log_writes, 6u);
}

TEST(FaseRuntime, BlockGranularityDeduplicates)
{
    Harness h;
    std::size_t log_appends = 0;
    auto [log_base, log_len] = h.rt.logRegion(0);
    (void)log_len;
    h.pm.setObserver([&](runtime::MemOp op, Addr a, std::uint32_t n) {
        // Count payload-sized log writes (the 64-byte old-data copy).
        if (op == runtime::MemOp::Write && a >= log_base && n == 64)
            ++log_appends;
    });
    h.rt.runFase(0, [&](Transaction &tx) {
        tx.writeU64(h.data, 1);     // block 0: logged
        tx.writeU64(h.data + 8, 2); // block 0 again: deduplicated
        tx.writeU64(h.data + 64, 3); // block 1: logged
    });
    h.pm.setObserver(nullptr);
    EXPECT_EQ(log_appends, 2u);
}

TEST(FaseRuntime, NestedFasePanics)
{
    Harness h;
    EXPECT_DEATH(h.rt.runFase(0,
                              [&](Transaction &) {
                                  h.rt.runFase(0, [](Transaction &) {});
                              }),
                 "nested");
}

TEST(FaseRuntime, PerThreadLogsAreDisjoint)
{
    Harness h;
    auto [b0, l0] = h.rt.logRegion(0);
    auto [b1, l1] = h.rt.logRegion(1);
    EXPECT_TRUE(b0 + l0 <= b1 || b1 + l1 <= b0);
}

TEST(FaseRuntime, AbortBudgetTurnsLivelockIntoDiagnosedFailure)
{
    Harness h;
    h.rt.setAbortBudget(5);
    EXPECT_EQ(h.rt.abortBudget(), 5u);
    try {
        h.rt.runFase(0, [&](Transaction &tx) {
            tx.writeU64(h.data, 9);
            // A FASE that re-races into misspeculation on every
            // attempt would previously retry forever.
            h.os.raiseMisspecInterrupt(h.data);
        });
        FAIL() << "expected AbortBudgetExhausted";
    } catch (const runtime::AbortBudgetExhausted &e) {
        EXPECT_EQ(e.tid, 0u);
        EXPECT_EQ(e.aborts, 5u);
        EXPECT_EQ(e.faultAddr, h.data);
    }
    EXPECT_FALSE(h.rt.inFase(0));
    // The final attempt was rolled back before giving up...
    EXPECT_EQ(h.pm.readU64(h.data), 1u);
    // ...and the runtime stays usable.
    h.rt.runFase(0, [&](Transaction &tx) { tx.writeU64(h.data, 10); });
    EXPECT_EQ(h.pm.readU64(h.data), 10u);
}

TEST(FaseRuntime, AbortBudgetIsPerInvocation)
{
    Harness h;
    h.rt.setAbortBudget(2);
    for (int round = 0; round < 3; ++round) {
        int runs = 0;
        // One abort per invocation stays under a budget of two.
        h.rt.runFase(0, [&](Transaction &tx) {
            tx.writeU64(h.data, 40 + round);
            if (++runs == 1)
                h.os.raiseMisspecInterrupt(h.data);
        });
    }
    EXPECT_EQ(h.rt.fasesCommitted(), 3u);
    EXPECT_EQ(h.rt.fasesAborted(), 3u);
}

TEST(FaseRuntime, ZeroAbortBudgetIsFatal)
{
    Harness h;
    EXPECT_DEATH(h.rt.setAbortBudget(0), "budget");
}

TEST(FaseRuntime, EagerInterruptOnAnotherThreadsBlockAbortsAtNextPoll)
{
    // Thread 1 misspeculates while thread 0 is mid-FASE: the OS
    // broadcast must surface on thread 0 as an AbortException at its
    // next Transaction::poll(), then re-execute to commit.
    Harness h(RecoveryPolicy::Eager);
    int raises = 0;
    int outer_runs = 0;
    h.rt.runFase(0, [&](Transaction &tx) {
        ++outer_runs;
        tx.writeU64(h.data, 5);
        h.rt.runFase(1, [&](Transaction &tx1) {
            tx1.writeU64(h.data + 64, 6);
            if (++raises == 1)
                h.os.raiseMisspecInterrupt(h.data + 64);
            tx1.writeU64(h.data + 72, 7);
        });
        // First pass: thread 0 was flagged by the broadcast above and
        // aborts right here, at its next runtime entry point.
        tx.writeU64(h.data + 8, 8);
    });
    EXPECT_EQ(outer_runs, 2);
    // One abort on each thread; thread 1 committed on both outer
    // passes, thread 0 once.
    EXPECT_EQ(h.rt.fasesAborted(), 2u);
    EXPECT_EQ(h.rt.fasesCommitted(), 3u);
    EXPECT_EQ(h.pm.readU64(h.data), 5u);
    EXPECT_EQ(h.pm.readU64(h.data + 8), 8u);
    EXPECT_EQ(h.pm.readU64(h.data + 64), 6u);
    EXPECT_EQ(h.pm.readU64(h.data + 72), 7u);
}
