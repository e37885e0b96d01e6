/**
 * @file
 * Tests for the exhaustive crash-point explorer: every persistent
 * data structure survives a power cut at *every* durable persist
 * prefix of every operation, and the oracles actually catch a
 * structure that breaks the failure-atomicity contract.
 */

#include <gtest/gtest.h>

#include <cstdint>

#include "faultinject/crash_explorer.hh"
#include "faultinject/pmds_workloads.hh"

using namespace pmemspec;
using faultinject::CrashWorkload;
using faultinject::ExploreOptions;
using faultinject::exploreCrashPoints;
using faultinject::makeStandardWorkloads;
using faultinject::workloadFactory;
using runtime::Transaction;

TEST(CrashExplorer, AllStandardWorkloadsSurviveEveryCrashPoint)
{
    for (const auto &wl : makeStandardWorkloads()) {
        const auto res = exploreCrashPoints(*wl);
        EXPECT_TRUE(res.passed())
            << res.workload << " failed "
            << res.failures << " oracle check(s); first: "
            << (res.messages.empty() ? "?" : res.messages.front());
        EXPECT_EQ(res.ops, wl->numOps()) << res.workload;
        // Every op has at least the log writes plus a data write, so
        // exhaustive enumeration must visit many more crash points
        // than operations.
        EXPECT_GT(res.crashPoints, 4 * res.ops) << res.workload;
    }
}

// Acceptance oracle of the media-fault work: with torn-write mode on,
// every structure still recovers *or* explicitly reports corruption
// at every crash point x torn-frontier-subset combination. Under the
// checksummed undo log no torn frontier is ever mistaken for valid
// state, so in practice all torn trials recover cleanly and no
// corruption verdict fires.
TEST(CrashExplorer, TornWriteModePassesNoSilentCorruptionOracle)
{
    ExploreOptions opts;
    opts.tornWrites = true;
    for (const auto &wl : makeStandardWorkloads()) {
        const auto res = exploreCrashPoints(*wl, opts);
        EXPECT_TRUE(res.passed())
            << res.workload << " failed " << res.failures
            << " oracle check(s); first: "
            << (res.messages.empty() ? "?" : res.messages.front());
        // Multi-word persists exist in every workload (the 64-byte
        // log payloads at minimum), so torn trials must have run.
        EXPECT_GT(res.tornTrials, res.ops) << res.workload;
        EXPECT_EQ(res.corruptionReported, 0u)
            << res.workload
            << ": a pure torn write is always detectable from the "
               "tombstoned frontier and must not trip the fail-safe";
    }
}

namespace
{

/** A deliberately broken structure: one of its two cells is updated
 *  with a raw PM write that bypasses the undo log, so a crash in the
 *  window where that write is durable but the FASE is not violates
 *  all-or-nothing recovery. The explorer must catch it. */
class BuggyWorkload : public faultinject::CrashWorkload
{
  public:
    const char *name() const override { return "buggy_unlogged"; }

    void
    setup(runtime::PersistentMemory &pm_,
          runtime::FaseRuntime &rt) override
    {
        (void)rt;
        pm = &pm_;
        logged = pm->alloc(8, 64);
        unlogged = pm->alloc(8, 64);
        pm->writeU64(logged, 1);
        pm->writeU64(unlogged, 1);
        pm->persistAll();
        modelLogged = modelUnlogged = 1;
    }

    std::size_t numOps() const override { return 1; }

    void
    runOp(Transaction &tx, std::size_t) override
    {
        tx.writeU64(logged, 2);
        pm->writeU64(unlogged, 2); // BUG: bypasses the undo log
    }

    void
    applyToModel(std::size_t) override
    {
        modelLogged = modelUnlogged = 2;
    }

    bool
    matchesModel() const override
    {
        return pm->readU64(logged) == modelLogged &&
               pm->readU64(unlogged) == modelUnlogged;
    }

    bool checkInvariants() const override { return true; }

  private:
    runtime::PersistentMemory *pm = nullptr;
    Addr logged = 0;
    Addr unlogged = 0;
    std::uint64_t modelLogged = 0;
    std::uint64_t modelUnlogged = 0;
};

} // namespace

TEST(CrashExplorer, CatchesUnloggedWrites)
{
    BuggyWorkload wl;
    const auto res = exploreCrashPoints(wl);
    EXPECT_FALSE(res.passed());
    EXPECT_GT(res.failures, 0u);
    ASSERT_FALSE(res.messages.empty());
    EXPECT_NE(res.messages.front().find("atomicity"), std::string::npos);
}

TEST(CrashExplorer, WorkloadFactoryKnowsEveryName)
{
    for (const auto &wl : faultinject::makeAllWorkloads()) {
        const auto factory = workloadFactory(wl->name());
        ASSERT_TRUE(factory) << wl->name();
        auto fresh = factory();
        EXPECT_STREQ(fresh->name(), wl->name());
        EXPECT_EQ(fresh->numOps(), wl->numOps());
    }
    EXPECT_FALSE(workloadFactory("no_such_workload"));
}
