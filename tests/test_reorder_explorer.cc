/**
 * @file
 * Tests for the crash-state reorder explorer: the pure window
 * enumeration (ordering edges, admissibility, reduction counters),
 * the hook-driven state walk, and the end-to-end model-checking
 * acceptance oracles -- every workload survives persist-reordering
 * exploration, the measured state reduction is at least 10x, and a
 * deliberately misordered undo log is caught by reorder exploration
 * while prefix-only exploration provably cannot see it.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "faultinject/crash_explorer.hh"
#include "faultinject/fault_plan.hh"
#include "faultinject/pmds_workloads.hh"
#include "faultinject/reorder_explorer.hh"
#include "runtime/fase_runtime.hh"

using namespace pmemspec;
using faultinject::ExploreOptions;
using faultinject::exploreCrashPoints;
using faultinject::PendingPersist;
using faultinject::ReorderConfig;
using faultinject::ReorderHooks;
using faultinject::WindowEnumerator;

namespace
{

PendingPersist
persist(Addr a, std::uint8_t fill, std::size_t n = 8,
        bool ordered = false)
{
    PendingPersist p;
    p.addr = a;
    p.bytes.assign(n, fill);
    p.ordered = ordered;
    return p;
}

} // namespace

TEST(WindowEnumerator, DisjointEntriesHaveNoEdges)
{
    // Three block-disjoint persists: a free antichain. Every subset
    // is admissible (2^3) and the naive checker would walk every
    // (subset, order) pair: 1 + 3*1 + 3*2 + 6 = 16.
    const std::vector<PendingPersist> w{
        persist(0, 1), persist(64, 2), persist(128, 3)};
    WindowEnumerator e(w);
    for (std::size_t i = 0; i < 3; ++i)
        EXPECT_TRUE(e.isolated(i)) << i;
    EXPECT_EQ(e.admissibleCount(), 8u);
    EXPECT_EQ(e.naiveSequences(), 16u);

    ReorderConfig cfg;
    EXPECT_EQ(e.canonicalMasks(cfg).size(), 7u); // nonempty subsets
}

TEST(WindowEnumerator, SameBlockEntriesStayInStoreOrder)
{
    // Two persists into one 64-byte block: the PMC's spec-ID check
    // makes "second without first" a detected WAW inversion, so only
    // {}, {0}, {0,1} are reachable.
    const std::vector<PendingPersist> w{persist(0, 1), persist(8, 2)};
    WindowEnumerator e(w);
    EXPECT_EQ(e.predecessors(1), 0b01u);
    EXPECT_EQ(e.successors(0), 0b10u);
    EXPECT_TRUE(e.admissible(0b00));
    EXPECT_TRUE(e.admissible(0b01));
    EXPECT_FALSE(e.admissible(0b10));
    EXPECT_TRUE(e.admissible(0b11));
    EXPECT_EQ(e.admissibleCount(), 3u);
    EXPECT_EQ(e.naiveSequences(), 3u);
}

TEST(WindowEnumerator, OrderedEntryIsAFullBarrier)
{
    // Disjoint blocks, but the middle persist carries the ordering
    // tag (a publication persist behind a spec-barrier): nothing
    // crosses it, so the admissible states are exactly the chain
    // prefixes {}, {0}, {0,1}, {0,1,2}.
    const std::vector<PendingPersist> w{
        persist(0, 1), persist(64, 2, 8, true), persist(128, 3)};
    WindowEnumerator e(w);
    EXPECT_EQ(e.admissibleCount(), 4u);
    EXPECT_EQ(e.naiveSequences(), 4u);
    EXPECT_FALSE(e.admissible(0b010));
    EXPECT_FALSE(e.admissible(0b110));
    EXPECT_TRUE(e.admissible(0b011));
}

namespace
{

/** Hooks over a plain byte image, for driving exploreReorderWindow
 *  without a PM: rewind restores a base copy, apply overlays. */
struct ImageHooks
{
    std::vector<std::uint8_t> base;
    std::vector<std::uint8_t> img;
    std::vector<std::uint64_t> checkedMasks;

    ReorderHooks
    hooks()
    {
        ReorderHooks h;
        h.rewind = [this] { img = base; };
        h.isNoop = [this](const PendingPersist &p) {
            return std::memcmp(img.data() + p.addr, p.bytes.data(),
                               p.bytes.size()) == 0;
        };
        h.apply = [this](const PendingPersist &p) {
            std::memcpy(img.data() + p.addr, p.bytes.data(),
                        p.bytes.size());
        };
        h.digest = [this] {
            // FNV-1a: toy but collision-free at this scale.
            std::uint64_t d = 1469598103934665603ULL;
            for (std::uint8_t b : img)
                d = (d ^ b) * 1099511628211ULL;
            return d;
        };
        h.check = [this](std::uint64_t mask, std::size_t) {
            checkedMasks.push_back(mask);
        };
        return h;
    }
};

} // namespace

TEST(ExploreReorderWindow, ElidesNoopsAndDedupsDigests)
{
    // Entry 2 is isolated *and* writes bytes the durable image
    // already holds: reduction (a) must drop it up front, so the
    // enumerated window shrinks to the two disjoint real writes
    // (3 nonempty subsets), while the naive counters still reflect
    // the raw three-entry window.
    ImageHooks ih;
    ih.base.assign(256, 0);
    const std::vector<PendingPersist> w{
        persist(0, 1), persist(64, 2), persist(128, 0)};

    ReorderConfig cfg;
    std::set<std::uint64_t> seen;
    const auto c =
        faultinject::exploreReorderWindow(w, cfg, ih.hooks(), seen);

    EXPECT_EQ(c.windows, 1u);
    EXPECT_EQ(c.naiveStates, 16u);
    EXPECT_EQ(c.orderingsCollapsed, 8u);
    EXPECT_EQ(c.elidedPersists, 1u);
    EXPECT_EQ(c.canonicalStates, 3u);
    EXPECT_EQ(c.statesExplored, 3u);
    EXPECT_EQ(c.statesDeduped, 0u);
    EXPECT_EQ(ih.checkedMasks.size(), 3u);

    // Second pass over the same window with the same seen-set:
    // reduction (c) recognises every image, nothing is re-checked.
    ih.checkedMasks.clear();
    const auto c2 =
        faultinject::exploreReorderWindow(w, cfg, ih.hooks(), seen);
    EXPECT_EQ(c2.statesExplored, 0u);
    EXPECT_EQ(c2.statesDeduped, 3u);
    EXPECT_TRUE(ih.checkedMasks.empty());
}

TEST(ReorderExplorer, AllWorkloadsSurviveReorderedCrashStates)
{
    // The tentpole acceptance oracle: all five persistent data
    // structures plus the three macro workloads run clean under
    // persist-reordering exploration, and the three reductions cut
    // the states actually recovered by at least 10x versus the
    // naive same-depth enumeration -- measured, not claimed.
    ExploreOptions opts;
    opts.reorderings = true;
    std::uint64_t naive = 0, explored = 0;
    for (const auto &wl : faultinject::makeAllWorkloads()) {
        const auto res = exploreCrashPoints(*wl, opts);
        EXPECT_TRUE(res.passed())
            << res.workload << " failed " << res.failures
            << " oracle check(s); first: "
            << (res.messages.empty() ? "?" : res.messages.front());
        EXPECT_GT(res.reorderWindows, 0u) << res.workload;
        EXPECT_GT(res.naiveStates, res.reorderStatesExplored)
            << res.workload;
        naive += res.naiveStates;
        explored += res.reorderStatesExplored;
    }
    ASSERT_GT(explored, 0u);
    EXPECT_GE(static_cast<double>(naive) / explored, 10.0)
        << "reduction collapsed: " << naive << " naive vs "
        << explored << " explored";
}

TEST(ReorderExplorer, FindsMisorderedUndoPublicationThatPrefixesMiss)
{
    // The known-bad oracle. The misordered variant skips the
    // spec-barrier ordering tag on the undo log's count bump, so
    // inside the speculation window the bump can overtake the entry
    // it publishes. Three verdicts pin the model checker's value:
    //
    //  1. prefix-only exploration PASSES the buggy runtime -- every
    //     prefix is store-ordered, so the bump never precedes its
    //     entry in any prefix state; the bug is invisible by
    //     construction, not by luck;
    //  2. reorder exploration FAILS it, and among the violations is
    //     an explicit unrecoverable-corruption report (count vouches
    //     for an entry whose header never landed);
    //  3. the same workload with the tags on PASSES reorder
    //     exploration -- the detector flags the bug, not the
    //     workload.
    ExploreOptions prefixOnly;
    const auto missed = exploreCrashPoints(
        *faultinject::makeSpecOrderingBugWorkload(false), prefixOnly);
    EXPECT_TRUE(missed.passed())
        << "prefix enumeration reached a reordered state?! "
        << (missed.messages.empty() ? "?" : missed.messages.front());

    ExploreOptions reorder;
    reorder.reorderings = true;
    const auto caught = exploreCrashPoints(
        *faultinject::makeSpecOrderingBugWorkload(false), reorder);
    EXPECT_FALSE(caught.passed());
    EXPECT_GT(caught.failures, 0u);
    EXPECT_GT(caught.corruptionReported, 0u)
        << "the count-without-entry state must trip the fail-safe";

    const auto fixed = exploreCrashPoints(
        *faultinject::makeSpecOrderingBugWorkload(true), reorder);
    EXPECT_TRUE(fixed.passed())
        << fixed.failures << " oracle check(s) failed; first: "
        << (fixed.messages.empty() ? "?" : fixed.messages.front());
}

namespace
{

/** (op, crash prefix) of an explorer violation message. */
std::pair<unsigned long, unsigned long>
opAndPrefix(const std::string &msg)
{
    unsigned long op = 0, k = 0;
    const auto at = msg.find(": op ");
    EXPECT_NE(at, std::string::npos) << msg;
    if (at != std::string::npos) {
        EXPECT_EQ(std::sscanf(msg.c_str() + at,
                              ": op %lu, crash prefix %lu", &op, &k),
                  2)
            << msg;
    }
    return {op, k};
}

} // namespace

TEST(ReorderExplorer, MessageCapBoundsResultGrowth)
{
    ExploreOptions opts;
    opts.reorderings = true;
    opts.maxMessages = 4;
    const auto res = exploreCrashPoints(
        *faultinject::makeSpecOrderingBugWorkload(false), opts);
    EXPECT_FALSE(res.passed());
    EXPECT_EQ(res.messages.size(), 4u);
    EXPECT_GT(res.messagesSuppressed, 0u);
    EXPECT_EQ(res.failures,
              res.messages.size() + res.messagesSuppressed);

    // The seeded bug fails at crash points of every op, so a cap
    // that falls inside op 1 must keep all of op 0's messages and
    // the first of op 1's, in (op, crash prefix) order.
    opts.maxMessages = std::numeric_limits<std::size_t>::max();
    const auto all = exploreCrashPoints(
        *faultinject::makeSpecOrderingBugWorkload(false), opts);
    EXPECT_EQ(all.messagesSuppressed, 0u);
    ASSERT_EQ(all.messages.size(), all.failures);
    std::vector<std::pair<unsigned long, unsigned long>> order;
    for (const auto &m : all.messages)
        order.push_back(opAndPrefix(m));
    EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
    ASSERT_GT(order.back().first, 1u);
    const std::size_t op0 = static_cast<std::size_t>(
        std::count_if(order.begin(), order.end(),
                      [](const auto &o) { return o.first == 0; }));

    opts.maxMessages = op0 + 2;
    const auto capped = exploreCrashPoints(
        *faultinject::makeSpecOrderingBugWorkload(false), opts);
    EXPECT_EQ(capped.failures, all.failures);
    const std::vector<std::string> first(
        all.messages.begin(), all.messages.begin() + op0 + 2);
    EXPECT_EQ(capped.messages, first);
    EXPECT_EQ(opAndPrefix(capped.messages.back()).first, 1u);
    EXPECT_EQ(capped.messages.size() + capped.messagesSuppressed,
              capped.failures);
}

namespace
{

/** Breaks the reorder path's one assumption: its first runOp (the
 *  explorer's recording run) writes one block, every later call a
 *  different one, so crash trials touch a block the recorded dirty
 *  set does not hold. */
class ShiftingWorkload : public faultinject::CrashWorkload
{
  public:
    const char *name() const override { return "shifting_block"; }

    void
    setup(runtime::PersistentMemory &pm, runtime::FaseRuntime &) override
    {
        first = pm.alloc(8, 64);
        second = pm.alloc(8, 64);
    }

    std::size_t numOps() const override { return 1; }

    void
    runOp(runtime::Transaction &tx, std::size_t) override
    {
        tx.writeU64(calls++ == 0 ? first : second, 7);
    }

    void applyToModel(std::size_t) override {}
    bool matchesModel() const override { return true; }
    bool checkInvariants() const override { return true; }

  private:
    Addr first = 0;
    Addr second = 0;
    std::size_t calls = 0;
};

} // namespace

TEST(ReorderExplorer, FlagsTrialWritesOutsideTheRecordedDirtySet)
{
    ExploreOptions opts;
    opts.reorderings = true;
    ShiftingWorkload wl;
    const auto res = exploreCrashPoints(wl, opts);
    EXPECT_FALSE(res.passed());
    bool flagged = false;
    for (const auto &m : res.messages)
        flagged |= m.find("outside the reference run's dirty set") !=
                   std::string::npos;
    EXPECT_TRUE(flagged)
        << (res.messages.empty() ? "no messages" : res.messages.front());

    // Torn mode builds its states on the same crash snapshot, so it
    // checks the dirty set (and the crash frontier) too.
    ExploreOptions tornOnly;
    tornOnly.tornWrites = true;
    ShiftingWorkload torn;
    const auto tornRes = exploreCrashPoints(torn, tornOnly);
    EXPECT_FALSE(tornRes.passed());
    bool tornFlagged = false;
    for (const auto &m : tornRes.messages)
        tornFlagged |= m.find("outside the reference run's dirty set") !=
                       std::string::npos;
    EXPECT_TRUE(tornFlagged);

    // Prefix-only exploration never consults the dirty set.
    ShiftingWorkload prefixOnly;
    EXPECT_TRUE(exploreCrashPoints(prefixOnly).passed());
}
