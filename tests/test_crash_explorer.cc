/**
 * @file
 * Tests for the exhaustive crash-point explorer: every persistent
 * data structure survives a power cut at *every* durable persist
 * prefix of every operation, and the oracles actually catch a
 * structure that breaks the failure-atomicity contract.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "faultinject/crash_explorer.hh"
#include "faultinject/fault_injector.hh"
#include "faultinject/fault_plan.hh"
#include "faultinject/pmds_workloads.hh"
#include "runtime/virtual_os.hh"

using namespace pmemspec;
using faultinject::CrashWorkload;
using faultinject::ExploreOptions;
using faultinject::FaultPlan;
using faultinject::PowerFailure;
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

// The explorer builds each torn-frontier state from the prefix
// trial's crash image: the post-crash blocks plus overlayTorn() of the
// frontier persist the PowerCutPlan captured. Through the public
// PM/runtime/injector API only, check that this is the state a
// re-executed TornWritePlan(k, mask) run leaves, for the first op of
// every standard workload and every (k, mask) the explorer enumerates.
TEST(CrashExplorer, TornStateFromCrashImageMatchesReexecution)
{
    const std::uint64_t seed = ExploreOptions{}.enumSeed;
    for (const auto &wl : makeStandardWorkloads()) {
        SCOPED_TRACE(wl->name());
        runtime::PersistentMemory pm(wl->pmBytes());
        runtime::VirtualOs os;
        runtime::FaseRuntime rt(pm, os, 1, runtime::RecoveryPolicy::Lazy,
                                wl->logBytes());
        faultinject::FaultInjector inj(pm, os);
        wl->setup(pm, rt);
        pm.persistAll();
        inj.attach();
        const std::vector<std::uint8_t> preImage(
            pm.persistedImage(), pm.persistedImage() + pm.size());
        const auto pre = pm.snapshot();

        // Rewind to the pre-operation state and run op 0 under `plan`.
        auto runArmed = [&](std::unique_ptr<FaultPlan> plan) {
            pm.restore(pre);
            rt.recoverAll();
            pm.persistAll();
            inj.clearPlans();
            inj.addPlan(std::move(plan));
            std::optional<PowerFailure> cut;
            try {
                rt.runFase(0, [&](Transaction &tx) { wl->runOp(tx, 0); });
            } catch (const PowerFailure &pf) {
                cut = pf;
            }
            inj.clearPlans();
            return cut;
        };

        std::size_t compared = 0;
        for (std::size_t k = 0;; ++k) {
            const auto cut =
                runArmed(std::make_unique<faultinject::PowerCutPlan>(k, 1));
            if (!cut)
                break;
            if (cut->frontierWords < 2)
                continue;
            ASSERT_EQ(inj.capturedWindow().size(), 1u);
            const runtime::PersistentMemory::Pending frontier =
                inj.capturedWindow().front();
            // Every block the trial changed since `pre` is journaled.
            const auto crashSnap = pm.snapshotBlocks(pm.touchedBlocks());

            for (std::uint64_t mask :
                 faultinject::subsetMasks(cut->frontierWords, 12, seed, 4)) {
                SCOPED_TRACE("k " + std::to_string(k) + " mask " +
                             std::to_string(mask));
                const auto torn = runArmed(
                    std::make_unique<faultinject::TornWritePlan>(k, mask));
                ASSERT_TRUE(torn && torn->torn);
                const std::vector<Addr> reexecBlocks = pm.touchedBlocks();
                std::vector<std::uint8_t> reexec;
                for (Addr b : reexecBlocks)
                    reexec.insert(reexec.end(), pm.persistedImage() + b,
                                  pm.persistedImage() + b + blockBytes);

                pm.restore(pre);
                pm.restoreBlocks(crashSnap);
                pm.overlayTorn(frontier, mask);
                EXPECT_EQ(pm.inFlightCount(), 0u);
                EXPECT_TRUE(pm.imagesAgree());
                // Outside both journals both states still hold pre's
                // bytes, so these blocks cover the whole image.
                for (std::size_t i = 0; i < reexecBlocks.size(); ++i)
                    EXPECT_EQ(std::memcmp(pm.persistedImage() +
                                              reexecBlocks[i],
                                          reexec.data() + i * blockBytes,
                                          blockBytes),
                              0)
                        << "block " << reexecBlocks[i];
                for (Addr b : pm.touchedBlocks()) {
                    if (std::find(reexecBlocks.begin(), reexecBlocks.end(),
                                  b) != reexecBlocks.end())
                        continue;
                    EXPECT_EQ(std::memcmp(pm.persistedImage() + b,
                                          preImage.data() + b, blockBytes),
                              0)
                        << "block " << b;
                }
                ++compared;
            }
        }
        EXPECT_GT(compared, 0u);
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
