/**
 * @file
 * Lazy crash-state enumeration over the speculation window.
 *
 * Prefix enumeration (crash_explorer) answers "what if the persist
 * stream was cut after k entries". Under PMEM-Spec that is the whole
 * story for the *accepted* stream -- but the speculation window
 * admits persists arriving at the PMC out of store order, so the
 * durable state an outage leaves behind can be k accepted persists
 * plus an arbitrary *order-consistent subset* of the next window's
 * worth of in-flight entries. Exactly those states are where
 * WAW-inversion (store-misspeculation) bugs hide, and exactly those
 * states prefix enumeration can never produce.
 *
 * This module is the pure model-checking half of that exploration:
 * given the captured window (tagged Pending entries), it builds the
 * ordering constraints, enumerates the admissible crash states, and
 * drives caller-supplied state hooks. The PM mechanics (rewinding
 * images, overlaying persists, running recovery oracles) stay in
 * crash_explorer so this half is unit-testable in isolation.
 *
 * Ordering model -- one edge i -> j (for queue positions i < j) iff:
 *
 *  - their persists touch overlapping 64-byte blocks: the PMC's
 *    spec-ID order check (mem::storeOrderViolated) forbids the later
 *    store's persist from landing first, because same-block persists
 *    carry strictly increasing speculation IDs and a lower ID behind
 *    a higher one is a detected WAW inversion that triggers a
 *    virtual power failure *before* anything later persists; or
 *  - either entry is `ordered` (a spec-barrier publication persist,
 *    e.g. an undo log's count bump): a barrier drains the window, so
 *    nothing crosses it in either direction.
 *
 * An admissible crash state is a downward-closed subset of the
 * window under these edges, applied on top of the clean prefix.
 *
 * Three reductions make the enumeration lazy:
 *
 *  (a) write elision: an entry with no edges at all whose bytes
 *      equal the current durable contents cannot distinguish any
 *      state; it is dropped from the window before enumeration (and
 *      no-op applications inside a state are skipped and counted);
 *  (b) commutative-reordering equivalence: all linear extensions of
 *      one admissible subset produce the same durable image (writes
 *      to disjoint blocks commute; same-block writes are already
 *      forced into queue order), so each subset is explored once,
 *      applied in canonical queue order -- the DPOR-style collapse
 *      of orderings into their Mazurkiewicz trace;
 *  (c) crash-state hashing: a seen-set of post-crash image digests
 *      (CRC-32C over the op's dirty blocks, two seeds) recovers each
 *      distinct durable image once, across masks *and* crash points.
 *
 * The counters report the collapse so the reduction factor is a
 * tested, machine-readable number rather than a claim.
 */

#ifndef PMEMSPEC_FAULTINJECT_REORDER_EXPLORER_HH
#define PMEMSPEC_FAULTINJECT_REORDER_EXPLORER_HH

#include <cstdint>
#include <functional>
#include <set>
#include <vector>

#include "runtime/persistent_memory.hh"

namespace pmemspec::faultinject
{

/** A captured in-flight persist (addr, bytes, spec id, barrier tag). */
using PendingPersist = runtime::PersistentMemory::Pending;

/** Window sizes up to this many entries get every admissible subset;
 *  wider windows fall back to the shared deterministic sampled masks
 *  (subsetMasks) filtered for admissibility. */
constexpr unsigned reorderExhaustiveBits = 12;
/** Mask cap in the sampled regime. */
constexpr unsigned maxReorderSubsets = 4096;

/** Enumeration knobs (window depth is the caller's: it decides how
 *  many entries to capture per crash point). */
struct ReorderConfig
{
    /** Seed for the sampled regime's deterministic top-up draws. */
    std::uint64_t seed = 0x9e3779b97f4a7c15ULL;
};

/** What one window's exploration did (all counters accumulate). */
struct ReorderCounts
{
    std::uint64_t windows = 0;        ///< crash windows enumerated
    /** Crash states a naive checker visits at the same depth: every
     *  (admissible subset, application order) pair. Saturating. */
    std::uint64_t naiveStates = 0;
    /** Orderings collapsed by reduction (b): naive sequences minus
     *  distinct admissible subsets. Saturating; only counted in the
     *  exhaustive regime (a sample has no meaningful total). */
    std::uint64_t orderingsCollapsed = 0;
    /** Subsets handed to the state hooks (post-elision, canonical). */
    std::uint64_t canonicalStates = 0;
    /** States that survived the digest seen-set and were checked. */
    std::uint64_t statesExplored = 0;
    /** States whose digest had been seen: recovery+oracles skipped. */
    std::uint64_t statesDeduped = 0;
    /** Reduction (a): window entries dropped up front plus no-op
     *  applications skipped inside states. */
    std::uint64_t elidedPersists = 0;

    void add(const ReorderCounts &o);
};

/**
 * PM mechanics the enumeration drives, supplied by the caller. The
 * contract per state: rewind() to the post-crash prefix image, then
 * apply() each chosen entry in canonical order (isNoop() consulted
 * first; a no-op is skipped and counted as elided), then digest();
 * check() runs only for a digest not yet in the seen-set.
 */
struct ReorderHooks
{
    std::function<void()> rewind;
    std::function<bool(const PendingPersist &)> isNoop;
    std::function<void(const PendingPersist &)> apply;
    std::function<std::uint64_t()> digest;
    /** @param mask   chosen subset (bits index the elision-reduced
     *                 window, oldest entry = bit 0)
     *  @param applied entries actually overlaid (no-ops excluded) */
    std::function<void(std::uint64_t mask, std::size_t applied)> check;
};

/**
 * The ordering constraints of one captured window, as predecessor /
 * successor bit masks, with the admissibility test and the
 * linear-extension counting the reduction counters need. Pure and
 * deterministic; unit-tested directly.
 */
class WindowEnumerator
{
  public:
    /** @param window At most 16 entries (the caller clamps its
     *  capture depth; 2^16 subset DP is the tractability limit). */
    explicit WindowEnumerator(const std::vector<PendingPersist> &window);

    std::size_t size() const { return pred.size(); }

    /** Entries i < j that must persist before j. */
    std::uint64_t predecessors(std::size_t j) const { return pred[j]; }
    /** Entries j > i that must persist after i. */
    std::uint64_t successors(std::size_t i) const { return succ[i]; }

    /** No edges touch entry i at all (elision candidate). */
    bool
    isolated(std::size_t i) const
    {
        return pred[i] == 0 && succ[i] == 0;
    }

    /** T is downward-closed: reachable as a durable subset. */
    bool admissible(std::uint64_t t) const;

    /** Distinct admissible subsets, the empty set included. */
    std::uint64_t admissibleCount() const;

    /**
     * Crash states of a naive order-enumerating checker: the number
     * of distinct (admissible subset, linear extension) pairs,
     * counted by the standard subset DP over topological orderings.
     * Saturates at UINT64_MAX.
     */
    std::uint64_t naiveSequences() const;

    /** The admissible nonempty subsets to explore, one canonical
     *  representative per Mazurkiewicz trace: exhaustive up to
     *  reorderExhaustiveBits, the shared deterministic sample above. */
    std::vector<std::uint64_t>
    canonicalMasks(const ReorderConfig &cfg) const;

  private:
    std::vector<std::uint64_t> pred;
    std::vector<std::uint64_t> succ;
};

/**
 * Enumerate the admissible crash states of `window` on top of the
 * current post-crash prefix (reductions (a)-(c) applied), driving
 * `hooks` for each novel state. `seen` is the cross-state digest
 * set; the caller owns it so deduplication spans crash points (a
 * low-prefix state at cut k+1 equals a high-subset state at cut k).
 * Returns this window's counter deltas.
 */
ReorderCounts exploreReorderWindow(
    const std::vector<PendingPersist> &window, const ReorderConfig &cfg,
    const ReorderHooks &hooks, std::set<std::uint64_t> &seen);

} // namespace pmemspec::faultinject

#endif // PMEMSPEC_FAULTINJECT_REORDER_EXPLORER_HH
