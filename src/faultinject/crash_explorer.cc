#include "crash_explorer.hh"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <set>

#include "common/crc32.hh"
#include "faultinject/fault_plan.hh"
#include "faultinject/reorder_explorer.hh"
#include "runtime/virtual_os.hh"

namespace pmemspec::faultinject
{

namespace
{

std::string
hexMask(std::uint64_t m)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "0x%llx",
                  static_cast<unsigned long long>(m));
    return buf;
}

/** Torn frontiers are exhaustive up to this word count (<= 14 proper
 *  subsets); wider frontiers use subsetMasks()'s sampled regime. */
constexpr unsigned tornExhaustiveBits = 4;
/** Torn subsets per crash point in the sampled regime. */
constexpr unsigned maxTornSubsets = 12;

/**
 * A PM observer that records every persist a run queues, tags and
 * all, copied off the in-flight queue as each write is observed. The
 * observer runs right after the store was queued, so the youngest
 * in-flight entry is this write, and entry k of the stream is the
 * persist a cut at prefix k (PowerCutPlan(k)) loses first.
 */
runtime::PersistentMemory::Observer
streamRecorder(const runtime::PersistentMemory &pm,
               std::vector<runtime::PersistentMemory::Pending> &stream)
{
    return [&pm, &stream](runtime::MemOp op, Addr, std::uint32_t) {
        if (op == runtime::MemOp::Write)
            stream.push_back(pm.pendingEntry(pm.inFlightCount() - 1));
    };
}

/** Same persist apart from its store-order id: the trials' pre-arm
 *  recovery queues persists the reference run did not, which shifts
 *  every later id. */
bool
samePersist(const runtime::PersistentMemory::Pending &a,
            const runtime::PersistentMemory::Pending &b)
{
    return a.addr == b.addr && a.bytes == b.bytes &&
           a.ordered == b.ordered;
}

/**
 * One workload's exploration machinery: the PM arena and runtime,
 * plus the result every operation's trials count into. No fault is
 * injected: the PM has an observer only while a run is recorded.
 */
class OpExplorer
{
  public:
    OpExplorer(CrashWorkload &wl, const ExploreOptions &opts,
               ExploreResult &res)
        : wl(wl), opts(opts), res(res), pm(wl.pmBytes()),
          rt(pm, os, 1, runtime::RecoveryPolicy::Lazy, wl.logBytes()),
          windowDepth(std::min<unsigned>(opts.windowDepth, 16))
    {
        rcfg.seed = opts.enumSeed;

        wl.setup(pm, rt);
        pm.persistAll();
    }

    /** Explore every crash point of one operation, leaving the
     *  operation committed. */
    void exploreOp(std::size_t op);

  private:
    /** Count a violation at (op, k). `trial` and `mask` name the
     *  reorder or torn state it was found in ("reorder"/"torn"); the
     *  message is built only here, so passing trials format nothing. */
    void
    fail(std::size_t op, std::size_t k, const char *what,
         const char *trial = nullptr, std::uint64_t mask = 0)
    {
        ++res.failures;
        // Cap the stored messages: a pathological workload can fail
        // at thousands of states, and the count is what matters past
        // the first examples. Operations run in order, so the kept
        // messages are the first in (op, crash prefix) order.
        if (res.messages.size() >= opts.maxMessages) {
            ++res.messagesSuppressed;
            return;
        }
        std::string msg = std::string(wl.name()) + ": op " +
                          std::to_string(op) + ", crash prefix " +
                          std::to_string(k) + ": " + what;
        if (trial)
            msg += std::string(" (") + trial + " mask=" + hexMask(mask) +
                   ")";
        res.messages.push_back(std::move(msg));
    }

    CrashWorkload &wl;
    const ExploreOptions &opts;
    ExploreResult &res;
    runtime::PersistentMemory pm;
    runtime::VirtualOs os;
    runtime::FaseRuntime rt;
    unsigned windowDepth;
    ReorderConfig rcfg;
};

void
OpExplorer::exploreOp(std::size_t op)
{
    ++res.ops;
    pm.persistAll();
    const auto pre = pm.snapshot();

    // The state every trial starts from: rewind to the
    // pre-operation state, let recoverAll() resynchronise the undo
    // logs' volatile cursors with the restored durable image, and
    // drain its writes so the in-flight queue is empty.
    auto startTrial = [&] {
        pm.restore(pre);
        rt.recoverAll();
        pm.persistAll();
    };

    // Reference committed image: the commit record is not the
    // FASE's last persist (tombstones trail it), so a crash can
    // land *past* the durable commit point. Recovery then keeps
    // the new state -- the "all" of all-or-nothing -- and the
    // oracle must recognise it. Run the op once uninterrupted to
    // learn what that state looks like (kept as the blocks where it
    // differs from `pre`), then rewind. In reorder and torn modes the
    // same run also records the persist stream whose entries
    // [k, k+depth) are the speculation window a cut at prefix k
    // interrupts, and the blocks that stream dirties: recovery only
    // ever writes the logged data blocks and the log region, both of
    // which this run touches, so every trial state of this op should
    // agree with `pre` outside them. The recorder stays installed
    // through the first trial start, so the stream ends with that
    // recovery's persists.
    const bool recorded = opts.reorderings || opts.tornWrites;
    std::vector<runtime::PersistentMemory::Pending> refStream;
    if (recorded)
        pm.setObserver(streamRecorder(pm, refStream));
    rt.runFase(0,
               [&](runtime::Transaction &tx) { wl.runOp(tx, op); });
    pm.persistAll();
    const auto post = pm.snapshotBlocks(pm.durableChangesSince(pre));
    startTrial();
    pm.setObserver(nullptr);
    std::vector<Addr> dirty;
    for (const auto &p : refStream) {
        if (p.bytes.empty())
            continue;
        const Addr last = p.addr + p.bytes.size() - 1;
        for (Addr b = blockAlign(p.addr); b <= blockAlign(last);
             b += blockBytes)
            dirty.push_back(b);
    }
    std::sort(dirty.begin(), dirty.end());
    dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());

    // The trials take their stream from a run of their own, from the
    // trial start: entry k is the frontier a cut at prefix k loses
    // first, and the stream's length is the op's crash-point count.
    std::vector<runtime::PersistentMemory::Pending> trialStream;
    pm.setObserver(streamRecorder(pm, trialStream));
    rt.runFase(0,
               [&](runtime::Transaction &tx) { wl.runOp(tx, op); });
    pm.setObserver(nullptr);

    // Every trial starts from restore(pre), so the PM's journal
    // limits both oracles to the blocks the trial touched (plus
    // post's own) while keeping whole-image meaning.
    //
    // After recovery the two images must agree once in-flight
    // persists drain: recovery may not leave state that exists only
    // in the "caches".
    auto converged = [&] {
        pm.persistAll();
        return pm.imagesAgree();
    };

    auto committedDurably = [&] {
        pm.persistAll();
        return pm.durableMatches(pre, post);
    };

    // Recovery of a crash state; false when it refused with an
    // explicit corruption report (counted here, judged by the
    // caller).
    auto recovered = [&] {
        try {
            rt.recoverAll();
            return true;
        } catch (const runtime::UnrecoverableCorruption &) {
            ++res.corruptionReported;
            return false;
        }
    };

    // Rewinding to the crash snapshot is exact only if every block a
    // trial touched is in the dirty set; the journal says whether it
    // was.
    auto touchedOutsideDirty = [&](std::size_t k) {
        for (Addr b : pm.touchedBlocks()) {
            if (!std::binary_search(dirty.begin(), dirty.end(), b)) {
                fail(op, k,
                     "trial touched a block outside the reference "
                     "run's dirty set (rewinds to the crash image "
                     "would be inexact)");
                return true;
            }
        }
        return false;
    };

    // Reduction (c)'s digest: CRC-32C over the dirty blocks of
    // the persisted image, two independent seeds folded into 64
    // bits (one 32-bit pass would silently merge distinct states
    // at birthday-collision rates the state counts here reach).
    auto digestDirty = [&] {
        std::uint32_t a = 0;
        std::uint32_t b = 0xdecafbad;
        for (Addr blk : dirty) {
            a = crc32c(pm.persistedImage() + blk, blockBytes, a);
            b = crc32c(pm.persistedImage() + blk, blockBytes, b);
        }
        return (static_cast<std::uint64_t>(a) << 32) | b;
    };

    // Digest seen-set, scoped to this operation: two crash
    // states with equal durable images recover identically, so
    // the second is counted as deduped and skipped.
    std::set<std::uint64_t> seenDigests;

    const std::size_t crashPoints = trialStream.size();
    for (std::size_t k = 0; k < crashPoints; ++k) {
        // crash(k) plus the reboot: stream entries [0, k) durable in
        // both images, nothing in flight. No FASE drains the queue
        // before its commit, so a cut at prefix k keeps exactly
        // these entries.
        startTrial();
        for (std::size_t i = 0; i < k; ++i)
            pm.overlayDurable(trialStream[i].addr,
                              trialStream[i].bytes.data(),
                              trialStream[i].bytes.size());
        ++res.crashPoints;
        // The post-crash (pre-recovery) image over the dirty blocks,
        // taken before the prefix trial's recovery mutates the
        // state: every reorder state and torn frontier of this crash
        // point is built on top of it.
        runtime::PersistentMemory::BlockSnapshot crashSnap;
        if (recorded)
            crashSnap = pm.snapshotBlocks(dirty);
        // The frontier (persist k, the first one lost) must be the
        // reference run's entry k, or neither the reorder window nor
        // the torn frontier describes this crash.
        const runtime::PersistentMemory::Pending &frontier =
            trialStream[k];
        const bool frontierMatches =
            k < refStream.size() && samePersist(frontier, refStream[k]);
        if (recorded && !frontierMatches)
            fail(op, k,
                 "crash frontier differs from the reference run's "
                 "persist at the same prefix (non-deterministic "
                 "operation?)");

        if (!recovered()) {
            // A clean prefix contains no corruption by
            // construction; refusing to recover it is a
            // fail-safe false positive.
            fail(op, k, "clean-prefix crash reported "
                        "unrecoverable corruption");
            continue;
        }
        if (!wl.checkInvariants())
            fail(op, k, "invariants violated after recovery");
        if (!wl.matchesModel() && !committedDurably())
            fail(op, k,
                 "recovered state is neither the pre- "
                 "nor the post-operation state "
                 "(atomicity)");
        if (!converged())
            fail(op, k,
                 "volatile/persisted images diverge "
                 "after recovery");

        // Reorder mode: the speculation window a cut at prefix k
        // interrupted -- reference-stream entries [k, k+depth).
        if (opts.reorderings && k < refStream.size()) {
            const std::size_t end =
                std::min<std::size_t>(k + windowDepth, refStream.size());
            const std::vector<runtime::PersistentMemory::Pending> window(
                refStream.begin() + k, refStream.begin() + end);
            ReorderHooks hooks;
            hooks.rewind = [&] { pm.restoreBlocks(crashSnap); };
            hooks.isNoop =
                [&](const runtime::PersistentMemory::Pending &p) {
                    return std::memcmp(pm.persistedImage() + p.addr,
                                       p.bytes.data(),
                                       p.bytes.size()) == 0;
                };
            hooks.apply =
                [&](const runtime::PersistentMemory::Pending &p) {
                    pm.overlayDurable(p.addr, p.bytes.data(),
                                      p.bytes.size());
                };
            hooks.digest = digestDirty;
            hooks.check = [&](std::uint64_t mask, std::size_t applied) {
                (void)applied;
                if (!recovered()) {
                    // The media is clean here: a reordered window is
                    // exactly what the barrier discipline must
                    // tolerate, so refusing it means the structure
                    // published a validity marker its persists did
                    // not back -- the WAW-inversion bug class.
                    fail(op, k,
                         "in-window persist reordering reported "
                         "unrecoverable corruption",
                         "reorder", mask);
                    return;
                }
                if (!wl.checkInvariants())
                    fail(op, k,
                         "invariants violated after reordered-crash "
                         "recovery",
                         "reorder", mask);
                if (!wl.matchesModel() && !committedDurably())
                    fail(op, k,
                         "recovered state is neither the pre- nor the "
                         "post-operation state (atomicity under "
                         "persist reordering)",
                         "reorder", mask);
                if (!converged())
                    fail(op, k,
                         "volatile/persisted images diverge after "
                         "reordered-crash recovery",
                         "reorder", mask);
            };
            const ReorderCounts rc =
                exploreReorderWindow(window, rcfg, hooks, seenDigests);
            res.reorderWindows += rc.windows;
            res.naiveStates += rc.naiveStates;
            res.reorderStatesExplored += rc.statesExplored;
            res.reorderStatesDeduped += rc.statesDeduped;
            res.elidedPersists += rc.elidedPersists;
            res.orderingsCollapsed += rc.orderingsCollapsed;
        }
        if (recorded && touchedOutsideDirty(k))
            continue;

        const std::size_t frontierWords =
            runtime::PersistentMemory::entryWords(frontier);
        if (!opts.tornWrites || frontierWords < 2 || !frontierMatches)
            continue;

        // Torn-frontier trials: same crash point k, but a word
        // subset of persist k+1 lands too. crashTorn(k, mask) is by
        // definition crash(k) plus the masked words of that
        // frontier, so each mask is built from the crash(k) image in
        // crashSnap and the frontier just checked against the
        // reference stream.
        //
        // The oracle is no-silent-corruption: either recovery
        // restores the pre-operation state, or it refuses with an
        // explicit report. Under this repo's checksummed undo log
        // every torn frontier is detected and discarded, so
        // recovery is expected to succeed.
        for (std::uint64_t mask :
             subsetMasks(frontierWords, maxTornSubsets, opts.enumSeed,
                         tornExhaustiveBits)) {
            pm.restoreBlocks(crashSnap);
            pm.overlayTorn(frontier, mask);
            ++res.tornTrials;

            // An explicit refusal satisfies the
            // no-silent-corruption oracle: nothing was replayed.
            if (recovered()) {
                if (!wl.checkInvariants())
                    fail(op, k,
                         "invariants violated after torn-write "
                         "recovery",
                         "torn", mask);
                if (!wl.matchesModel() && !committedDurably())
                    fail(op, k,
                         "silent corruption: torn-write recovery "
                         "returned success but the state is neither "
                         "the pre- nor the post-operation state",
                         "torn", mask);
                if (!converged())
                    fail(op, k,
                         "volatile/persisted images diverge after "
                         "torn-write recovery",
                         "torn", mask);
            }
            if (touchedOutsideDirty(k))
                break;
        }
    }

    // The uninterrupted run from the trial start leaves the
    // operation committed; its prefix is the op's crash-point count.
    startTrial();
    rt.runFase(0,
               [&](runtime::Transaction &tx) { wl.runOp(tx, op); });
    wl.applyToModel(op);
    if (!wl.checkInvariants())
        fail(op, crashPoints, "invariants violated after commit");
    if (!wl.matchesModel())
        fail(op, crashPoints, "committed state does not match the model");
    if (!converged())
        fail(op, crashPoints,
             "volatile/persisted images diverge after commit");
}

} // namespace

ExploreResult
exploreCrashPoints(CrashWorkload &wl, const ExploreOptions &opts)
{
    ExploreResult res;
    res.workload = wl.name();
    OpExplorer ex(wl, opts, res);
    for (std::size_t op = 0; op < wl.numOps(); ++op)
        ex.exploreOp(op);
    return res;
}

} // namespace pmemspec::faultinject
