/**
 * @file
 * Systematic crash-point exploration.
 *
 * Under PMEM-Spec's strict persistency the durable state after a
 * power failure is always an in-order *prefix* of the persist stream
 * (PersistentMemory models exactly that). The explorer exploits this
 * to be exhaustive rather than sampled: for every operation of a
 * workload it snapshots the PM, records the persist stream of one
 * uninterrupted run of the operation (a plain PM observer copies
 * each persist as it is queued; nothing is injected), and then
 * builds the crash image of every durable prefix k = 0, 1, ..., n-1
 * of that stream (n = the run's persist count) without re-running
 * the operation: from the state every trial starts from, stream
 * entries [0, k) are made durable in both images
 * (PersistentMemory::overlayDurable), which is what crash(k) and the
 * reboot leave. Entry k is the frontier a re-executed PowerCutPlan(k)
 * loses, the persist that made the queue k+1 deep. Each crash image
 * is recovered and checked against the oracles:
 *
 *  - all-or-nothing: the recovered structure equals the pre-operation
 *    shadow model (the cut landed before the commit record, so the
 *    FASE must vanish) or the committed state;
 *  - structure invariants: the workload's own consistency check;
 *  - image convergence: after recovery and a persist barrier the
 *    volatile and persisted images must be byte-identical.
 *
 * The operation runs three times per op: a reference run, the
 * recorded run that gives the trials their stream, and a final
 * uninterrupted run that leaves it committed. The workload never
 * declares its write counts.
 *
 * Two extensions widen the failure model per crash point:
 * tornWrites adds word-subset frontiers (media tearing), and
 * reorderings adds the speculation window's order-consistent persist
 * subsets (see reorder_explorer.hh) -- the crash states where
 * WAW-inversion bugs hide, which no prefix can produce. The
 * reference run records the persist stream whose entries
 * [k, k+depth) are the window a cut at prefix k interrupts, and the
 * blocks it dirties; each crash point keeps a sparse snapshot of its
 * crash image over those blocks. Reorder states lay window persists
 * over that image; torn states lay the chosen words of the frontier
 * persist k over it (PersistentMemory::overlayTorn), and
 * crashTorn(k, mask) is by definition crash(k) plus those words.
 *
 * The built states are the ones a re-executed power cut would leave
 * only under three premises; reorder and torn modes check the first
 * and the last:
 *
 *  - the operation is deterministic given the PM state, so every
 *    run of it persists the same stream: each crash point's frontier
 *    is compared with the reference run's persist at the same prefix;
 *  - no FASE drains the persist queue before it commits (only
 *    FaseRuntime's commit and UndoLog::recover call persistAll(), and
 *    no misspeculation is injected here), so a cut at prefix k keeps
 *    exactly stream entries [0, k);
 *  - every block a trial touches is in the reference run's dirty
 *    set, so rewinding the crash snapshot is exact: the PM's
 *    block-touch journal is checked against it after every crash
 *    point and torn trial.
 */

#ifndef PMEMSPEC_FAULTINJECT_CRASH_EXPLORER_HH
#define PMEMSPEC_FAULTINJECT_CRASH_EXPLORER_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "runtime/fase_runtime.hh"
#include "runtime/persistent_memory.hh"

namespace pmemspec::faultinject
{

/**
 * A workload the explorer can crash at every persist prefix. The
 * workload owns both the persistent structure under test and a
 * volatile shadow model of its expected contents.
 */
class CrashWorkload
{
  public:
    virtual ~CrashWorkload() = default;

    virtual const char *name() const = 0;

    /** PM arena size for this workload. */
    virtual std::size_t pmBytes() const { return std::size_t{1} << 21; }

    /** Undo-log bytes for the (single) worker thread. */
    virtual std::size_t logBytes() const { return std::size_t{1} << 17; }

    /** Build the structure, seed initial contents and reset the
     *  shadow model to match. Runs once, before any operation is
     *  explored. */
    virtual void setup(runtime::PersistentMemory &pm,
                       runtime::FaseRuntime &rt) = 0;

    virtual std::size_t numOps() const = 0;

    /** The FASE body of operation `op`. May execute several times
     *  (abort/retry), so it must be deterministic given the PM
     *  state -- exactly the contract a FASE already has. */
    virtual void runOp(runtime::Transaction &tx, std::size_t op) = 0;

    /** Advance the shadow model past operation `op` (called once,
     *  after the operation committed). */
    virtual void applyToModel(std::size_t op) = 0;

    /** Live structure contents equal the shadow model. */
    virtual bool matchesModel() const = 0;

    /** Structure-specific internal invariants hold. */
    virtual bool checkInvariants() const = 0;
};

/** Outcome of exploring one workload. */
struct ExploreResult
{
    std::string workload;
    std::size_t ops = 0;         ///< operations explored
    std::size_t crashPoints = 0; ///< crash/recover trials executed
    std::size_t tornTrials = 0;  ///< torn-frontier crash trials
    /** Recoveries that refused with UnrecoverableCorruption: an
     *  *explicit* report, so it satisfies the no-silent-corruption
     *  oracle for torn trials (and is a failure for clean-prefix
     *  trials, which can never legitimately corrupt). */
    std::size_t corruptionReported = 0;
    std::size_t failures = 0;    ///< oracle violations
    /** One per violation in (op, crash prefix) order, capped at
     *  ExploreOptions::maxMessages; the overflow is counted, not
     *  stored. */
    std::vector<std::string> messages;
    /** Violation messages dropped by the cap (failures still counts
     *  every one). */
    std::size_t messagesSuppressed = 0;

    // ---- Reorder-mode counters (ExploreOptions::reorderings) ----

    /** Crash windows enumerated (one per crash point with in-flight
     *  entries beyond the cut). */
    std::uint64_t reorderWindows = 0;
    /** Crash states a naive checker would visit at the same window
     *  depth: every (order-consistent subset, application order)
     *  pair. Saturating. */
    std::uint64_t naiveStates = 0;
    /** Reordered states actually recovered and checked (novel
     *  digests). */
    std::uint64_t reorderStatesExplored = 0;
    /** Reordered states skipped because their post-crash image
     *  digest had been seen (reduction (c)). */
    std::uint64_t reorderStatesDeduped = 0;
    /** Persists dropped or skipped as no-ops (reduction (a)). */
    std::uint64_t elidedPersists = 0;
    /** Application orders collapsed into canonical representatives
     *  (reduction (b)). Saturating. */
    std::uint64_t orderingsCollapsed = 0;

    /** States a naive enumerator visits but this one never touches:
     *  the headline number of the three reductions combined. */
    std::uint64_t
    statesPruned() const
    {
        const std::uint64_t visited =
            reorderStatesExplored + reorderStatesDeduped;
        return naiveStates > visited ? naiveStates - visited : 0;
    }

    /** naive / explored -- the measured reduction factor. */
    double
    reductionFactor() const
    {
        const std::uint64_t denom =
            reorderStatesExplored ? reorderStatesExplored : 1;
        return static_cast<double>(naiveStates) /
               static_cast<double>(denom);
    }

    bool passed() const { return failures == 0; }
};

/** Knobs for the exploration. */
struct ExploreOptions
{
    /**
     * Torn-write mode: for every crash point whose frontier persist
     * spans more than one 8-byte word, additionally check a set of
     * word subsets of that frontier made durable. Each state is the
     * prefix trial's crash(k) image plus the subset's words of the
     * frontier persist -- the state a PowerCutPlan(k, mask) re-run
     * leaves, built without re-executing the operation (see the file
     * comment for why the two match). The oracle weakens from
     * "recovered state == pre-operation state" to *no silent
     * corruption*: recovery must either reproduce the pre-operation
     * state or refuse with an explicit UnrecoverableCorruption
     * report -- it must never hand back garbage as if it were fine.
     */
    bool tornWrites = false;

    /**
     * Reorder mode: for every crash point, additionally enumerate
     * the order-consistent subsets of the next `windowDepth`
     * in-flight persists -- the states a power failure can leave
     * when the speculation window reordered persist arrivals -- and
     * run the recovery oracles on each novel one. See
     * reorder_explorer.hh for the ordering model and the three
     * reductions; the counters land in ExploreResult.
     */
    bool reorderings = false;
    /** Window entries enumerated past each crash point. Clamped to
     *  16 (subset-DP limit); callers with a timing model should also
     *  clamp to mem::persistsInWindow(window, path_latency) -- depth
     *  beyond the hardware window checks impossible states. */
    unsigned windowDepth = 6;
    /** Seed for every sampled (non-exhaustive) mask enumeration,
     *  torn and reorder alike: same seed, same masks, every run. */
    std::uint64_t enumSeed = 0x9e3779b97f4a7c15ULL;
    /** Violation-message cap (first N kept, the rest counted in
     *  messagesSuppressed). */
    std::size_t maxMessages = 64;
};

/** Run the exhaustive crash-prefix enumeration over one workload. */
ExploreResult exploreCrashPoints(CrashWorkload &wl,
                                 const ExploreOptions &opts = {});

/** Builds a fresh, independent instance of one workload (see
 *  workloadFactory() in pmds_workloads.hh). */
using WorkloadFactory =
    std::function<std::unique_ptr<CrashWorkload>()>;

} // namespace pmemspec::faultinject

#endif // PMEMSPEC_FAULTINJECT_CRASH_EXPLORER_HH
