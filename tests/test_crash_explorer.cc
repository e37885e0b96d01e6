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

namespace
{

using Pending = runtime::PersistentMemory::Pending;

/** Records every persist a run queues, as the explorer's recorder
 *  does: entry k is the frontier a cut at prefix k loses first. */
class StreamRecorder : public FaultPlan
{
  public:
    StreamRecorder(const runtime::PersistentMemory &pm,
                   std::vector<Pending> &stream)
        : pm(pm), stream(stream)
    {
    }

    std::optional<faultinject::FaultAction>
    onAccess(const faultinject::AccessInfo &info) override
    {
        if (info.op == runtime::MemOp::Write)
            stream.push_back(pm.pendingEntry(pm.inFlightCount() - 1));
        return std::nullopt;
    }

  private:
    const runtime::PersistentMemory &pm;
    std::vector<Pending> &stream;
};

/** Op 0 of one workload, set up the way the explorer sets it up,
 *  through the public PM/runtime/injector API only. */
struct OpHarness
{
    explicit OpHarness(CrashWorkload &wl)
        : wl(wl), pm(wl.pmBytes()),
          rt(pm, os, 1, runtime::RecoveryPolicy::Lazy, wl.logBytes()),
          inj(pm, os)
    {
        wl.setup(pm, rt);
        pm.persistAll();
        inj.attach();
        EXPECT_TRUE(pm.imagesAgree());
        preImage.assign(pm.persistedImage(),
                        pm.persistedImage() + pm.size());
        pre = pm.snapshot();
    }

    /** The state every explorer trial starts from. */
    void
    startTrial()
    {
        pm.restore(pre);
        rt.recoverAll();
        pm.persistAll();
    }

    /** Run op 0 from the trial start under `plan`; the power failure
     *  it threw, if any. */
    std::optional<PowerFailure>
    runArmed(std::unique_ptr<FaultPlan> plan)
    {
        startTrial();
        inj.addPlan(std::move(plan));
        std::optional<PowerFailure> cut;
        try {
            rt.runFase(0, [&](Transaction &tx) { wl.runOp(tx, 0); });
        } catch (const PowerFailure &pf) {
            cut = pf;
        }
        inj.clearPlans();
        return cut;
    }

    /** The persist stream of op 0 run uninterrupted from the trial
     *  start. */
    std::vector<Pending>
    recordStream()
    {
        std::vector<Pending> stream;
        EXPECT_FALSE(runArmed(std::make_unique<StreamRecorder>(pm, stream)));
        return stream;
    }

    CrashWorkload &wl;
    runtime::PersistentMemory pm;
    runtime::VirtualOs os;
    runtime::FaseRuntime rt;
    faultinject::FaultInjector inj;
    /** The persisted image at `pre`; the volatile one equalled it. */
    std::vector<std::uint8_t> preImage;
    runtime::PersistentMemory::Snapshot pre;
};

} // namespace

// The explorer builds the crash image of prefix k without re-running
// the operation: from the trial start state it makes entries [0, k)
// of the recorded persist stream durable in both images. Check that
// this is the state a re-executed PowerCutPlan(k) run leaves, for the
// first op of every standard workload and every k, and that the plan
// stops firing exactly at the stream's length.
TEST(CrashExplorer, PrefixStateFromStreamMatchesReexecution)
{
    for (const auto &wl : makeStandardWorkloads()) {
        SCOPED_TRACE(wl->name());
        OpHarness h(*wl);
        const std::vector<Pending> stream = h.recordStream();
        ASSERT_FALSE(stream.empty());
        for (std::size_t k = 0; k < stream.size(); ++k) {
            SCOPED_TRACE("k " + std::to_string(k));
            const auto cut =
                h.runArmed(std::make_unique<faultinject::PowerCutPlan>(k));
            ASSERT_TRUE(cut);
            EXPECT_EQ(cut->durablePrefix, k);
            EXPECT_FALSE(cut->torn);
            EXPECT_EQ(h.pm.inFlightCount(), 0u);
            const std::vector<Addr> reexecBlocks = h.pm.touchedBlocks();
            std::vector<std::uint8_t> reexecVolatile, reexecPersisted;
            for (Addr b : reexecBlocks) {
                reexecVolatile.insert(reexecVolatile.end(),
                                      h.pm.volatileImage() + b,
                                      h.pm.volatileImage() + b + blockBytes);
                reexecPersisted.insert(
                    reexecPersisted.end(), h.pm.persistedImage() + b,
                    h.pm.persistedImage() + b + blockBytes);
            }

            h.startTrial();
            for (std::size_t i = 0; i < k; ++i)
                h.pm.overlayDurable(stream[i].addr, stream[i].bytes.data(),
                                    stream[i].bytes.size());
            EXPECT_EQ(h.pm.inFlightCount(), 0u);

            // Outside both journals both states still hold pre's
            // bytes, so their union covers the whole image.
            std::vector<Addr> blocks = h.pm.touchedBlocks();
            blocks.insert(blocks.end(), reexecBlocks.begin(),
                          reexecBlocks.end());
            std::sort(blocks.begin(), blocks.end());
            blocks.erase(std::unique(blocks.begin(), blocks.end()),
                         blocks.end());
            for (Addr b : blocks) {
                const auto it = std::find(reexecBlocks.begin(),
                                          reexecBlocks.end(), b);
                const std::size_t i =
                    static_cast<std::size_t>(it - reexecBlocks.begin());
                const bool touched = it != reexecBlocks.end();
                const std::uint8_t *wantVolatile =
                    touched ? reexecVolatile.data() + i * blockBytes
                            : h.preImage.data() + b;
                const std::uint8_t *wantPersisted =
                    touched ? reexecPersisted.data() + i * blockBytes
                            : h.preImage.data() + b;
                EXPECT_EQ(std::memcmp(h.pm.volatileImage() + b,
                                      wantVolatile, blockBytes),
                          0)
                    << "volatile block " << b;
                EXPECT_EQ(std::memcmp(h.pm.persistedImage() + b,
                                      wantPersisted, blockBytes),
                          0)
                    << "persisted block " << b;
            }
        }
        EXPECT_FALSE(h.runArmed(
            std::make_unique<faultinject::PowerCutPlan>(stream.size())))
            << "a cut past the stream's last persist must not fire";
    }
}

// The explorer builds each torn-frontier state from the prefix
// trial's crash image: the post-crash blocks plus overlayTorn() of
// the frontier persist, entry k of the recorded stream. Through the
// public PM/runtime/injector API only, check that this is the state a
// re-executed PowerCutPlan(k, mask) run leaves, for the first op of
// every standard workload and every (k, mask) the explorer enumerates.
TEST(CrashExplorer, TornStateFromCrashImageMatchesReexecution)
{
    const std::uint64_t seed = ExploreOptions{}.enumSeed;
    for (const auto &wl : makeStandardWorkloads()) {
        SCOPED_TRACE(wl->name());
        OpHarness h(*wl);
        const std::vector<Pending> stream = h.recordStream();

        std::size_t compared = 0;
        for (std::size_t k = 0;; ++k) {
            const auto cut =
                h.runArmed(std::make_unique<faultinject::PowerCutPlan>(k));
            if (!cut)
                break;
            ASSERT_LT(k, stream.size());
            const Pending &frontier = stream[k];
            const std::size_t frontierWords =
                runtime::PersistentMemory::entryWords(frontier);
            if (frontierWords < 2)
                continue;
            // Every block the trial changed since `pre` is journaled.
            const auto crashSnap = h.pm.snapshotBlocks(h.pm.touchedBlocks());

            for (std::uint64_t mask :
                 faultinject::subsetMasks(frontierWords, 12, seed, 4)) {
                SCOPED_TRACE("k " + std::to_string(k) + " mask " +
                             std::to_string(mask));
                const auto torn = h.runArmed(
                    std::make_unique<faultinject::PowerCutPlan>(k, mask));
                ASSERT_TRUE(torn && torn->torn);
                const std::vector<Addr> reexecBlocks = h.pm.touchedBlocks();
                std::vector<std::uint8_t> reexec;
                for (Addr b : reexecBlocks)
                    reexec.insert(reexec.end(), h.pm.persistedImage() + b,
                                  h.pm.persistedImage() + b + blockBytes);

                h.pm.restore(h.pre);
                h.pm.restoreBlocks(crashSnap);
                h.pm.overlayTorn(frontier, mask);
                EXPECT_EQ(h.pm.inFlightCount(), 0u);
                EXPECT_TRUE(h.pm.imagesAgree());
                // Outside both journals both states still hold pre's
                // bytes, so these blocks cover the whole image.
                for (std::size_t i = 0; i < reexecBlocks.size(); ++i)
                    EXPECT_EQ(std::memcmp(h.pm.persistedImage() +
                                              reexecBlocks[i],
                                          reexec.data() + i * blockBytes,
                                          blockBytes),
                              0)
                        << "block " << reexecBlocks[i];
                for (Addr b : h.pm.touchedBlocks()) {
                    if (std::find(reexecBlocks.begin(), reexecBlocks.end(),
                                  b) != reexecBlocks.end())
                        continue;
                    EXPECT_EQ(std::memcmp(h.pm.persistedImage() + b,
                                          h.preImage.data() + b,
                                          blockBytes),
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

/** A non-deterministic operation: its second execution logs and
 *  writes a different cell than its first (the count lives outside
 *  PM, so rewinding the PM does not rewind it). */
class NondeterministicWorkload : public faultinject::CrashWorkload
{
  public:
    const char *name() const override { return "nondeterministic"; }

    void
    setup(runtime::PersistentMemory &pm_,
          runtime::FaseRuntime &rt) override
    {
        (void)rt;
        pm = &pm_;
        cells = pm->alloc(2 * 64, 64);
        pm->writeU64(cells, 1);
        pm->writeU64(cells + 64, 1);
        pm->persistAll();
    }

    std::size_t numOps() const override { return 1; }

    void
    runOp(Transaction &tx, std::size_t) override
    {
        tx.writeU64(executions++ == 1 ? cells + 64 : cells, 2);
    }

    void applyToModel(std::size_t) override {}
    bool matchesModel() const override { return true; }
    bool checkInvariants() const override { return true; }

  private:
    runtime::PersistentMemory *pm = nullptr;
    Addr cells = 0;
    unsigned executions = 0;
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

// The crash states are built from one run's persist stream and the
// reorder windows from another's, which describe the same crashes
// only if the operation is deterministic. An operation that is not
// must be reported, not explored as if it were.
TEST(CrashExplorer, ReportsANonDeterministicOperation)
{
    NondeterministicWorkload wl;
    ExploreOptions opts;
    opts.reorderings = true;
    const auto res = exploreCrashPoints(wl, opts);
    EXPECT_FALSE(res.passed());
    const bool reported = std::any_of(
        res.messages.begin(), res.messages.end(), [](const std::string &m) {
            return m.find("crash frontier differs from the reference "
                          "run's persist at the same prefix") !=
                   std::string::npos;
        });
    EXPECT_TRUE(reported);
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
