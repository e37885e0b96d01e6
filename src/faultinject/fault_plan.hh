/**
 * @file
 * Pluggable fault plans for the deterministic fault injector.
 *
 * A FaultPlan watches the stream of functional PM accesses and
 * decides *when* to fire *which* hardware fault. Plans are pure
 * trigger logic; the mechanics of actually firing the fault (driving
 * the speculation-buffer automaton, reordering persist arrivals,
 * cutting power at a persist prefix) live in FaultInjector. This
 * split keeps injection deterministic and composable: a test arms a
 * plan, runs its workload, and the fault fires at exactly the chosen
 * access on every run.
 */

#ifndef PMEMSPEC_FAULTINJECT_FAULT_PLAN_HH
#define PMEMSPEC_FAULTINJECT_FAULT_PLAN_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "common/types.hh"
#include "runtime/persistent_memory.hh"

namespace pmemspec::faultinject
{

/** The injectable hardware events. */
enum class FaultKind
{
    /** Drive the Figure 5 automaton through WriteBack-Read-Persist:
     *  a PM load raced an in-flight persist and fetched stale data
     *  (Section 5.1). Ends in a misspeculation interrupt. */
    LoadStale,
    /** Deliver two persists to one block with inverted speculation
     *  IDs inside the window: an inter-thread WAW persisted out of
     *  happens-before order (Section 5.2). Ends in an interrupt. */
    StoreWaw,
    /** Power failure: keep a chosen prefix of the in-flight persist
     *  queue durable, lose the rest, throw PowerFailure. */
    PowerCut,
    /** Hold a persist arrival back on the (virtual) persist path
     *  without any racing read -- a benign reorder that must NOT
     *  raise an interrupt. */
    PersistDelay,
    /** Power failure at a persist prefix whose frontier entry is
     *  *torn*: an arbitrary word subset of persist prefix+1 is also
     *  durable (8-byte atomicity holds, block atomicity does not).
     *  Throws PowerFailure like PowerCut. */
    TornWrite,
    /** Flip bits in one durable 8-byte word beneath the persist
     *  queue -- silent bit rot that only checksums can catch. */
    BitFlip,
    /** Mark one 8-byte word uncorrectable: subsequent reads raise
     *  runtime::MediaError until the word is fully overwritten. */
    Poison,
};

/** One functional PM access as seen by the injector's observer.
 *  It carries no running index: a plan that counts accesses counts
 *  the ones it sees, from its own arming. */
struct AccessInfo
{
    runtime::MemOp op;
    Addr addr;
    std::uint32_t bytes;
};

/** What to fire, produced by a plan's trigger. */
struct FaultAction
{
    FaultKind kind;
    Addr addr = 0;          ///< faulting address (block-aligned use)
    std::size_t prefix = 0; ///< PowerCut/TornWrite: durable prefix
    Tick delay = 0;         ///< persist-path arrival delay (0 = default)
    /** TornWrite: word subset of the frontier entry made durable
     *  (bit i = i-th overlapped 8-byte word). BitFlip: XOR mask
     *  applied to the word (0 means flip bit 0). */
    std::uint64_t mask = 0;
};

/**
 * The one deterministic subset enumerator behind both the torn-write
 * frontier masks and the reorder explorer's sampled crash-window
 * subsets. Yields *proper nonempty* subsets of an `n`-element set as
 * bit masks ("none" and "all" are the clean prefixes k and k+1 --
 * the plain enumeration already covers them):
 *
 *  - n <= exhaustive_bits: every proper nonempty subset, in
 *    ascending mask order (cap ignored -- exhaustive means
 *    exhaustive);
 *  - wider sets: a fixed pattern family (each single element, each
 *    all-but-one, the two checkerboards) topped up with seeded
 *    Rng-drawn masks, deduplicated, capped at `cap`.
 *
 * Byte-identical across runs and platforms for equal arguments: the
 * pattern order is fixed and the fill uses the repo's own
 * deterministic xoshiro Rng seeded with `seed ^ n`. Unit-tested for
 * exactly that property.
 */
std::vector<std::uint64_t> subsetMasks(std::size_t n, unsigned cap,
                                       std::uint64_t seed,
                                       unsigned exhaustive_bits);

/** Trigger logic deciding when a fault fires. */
class FaultPlan
{
  public:
    virtual ~FaultPlan() = default;

    /** Called on every observed access; return an action to fire it.
     *  Plans fire at most once unless they re-arm themselves. */
    virtual std::optional<FaultAction> onAccess(const AccessInfo &info) = 0;
};

/** Fire `kind` at the Nth observed access (1-based), faulting on the
 *  address of that access. */
class NthAccessPlan : public FaultPlan
{
  public:
    NthAccessPlan(FaultKind kind, std::uint64_t nth, Tick delay = 0,
                  std::uint64_t mask = 0)
        : kind(kind), nth(nth), delay(delay), mask(mask)
    {
    }

    std::optional<FaultAction>
    onAccess(const AccessInfo &info) override
    {
        if (fired || ++seen != nth)
            return std::nullopt;
        fired = true;
        return FaultAction{kind, info.addr, 0, delay, mask};
    }

  private:
    FaultKind kind;
    std::uint64_t nth;
    Tick delay;
    std::uint64_t mask;
    std::uint64_t seen = 0;
    bool fired = false;
};

/** Fire `kind` the first time a chosen cache block is touched. */
class AddrTouchPlan : public FaultPlan
{
  public:
    AddrTouchPlan(FaultKind kind, Addr addr, Tick delay = 0,
                  std::uint64_t mask = 0)
        : kind(kind), block(blockAlign(addr)), delay(delay), mask(mask)
    {
    }

    std::optional<FaultAction>
    onAccess(const AccessInfo &info) override
    {
        if (fired || blockAlign(info.addr) != block)
            return std::nullopt;
        fired = true;
        return FaultAction{kind, info.addr, 0, delay, mask};
    }

  private:
    FaultKind kind;
    Addr block;
    Tick delay;
    std::uint64_t mask;
    bool fired = false;
};

/**
 * Re-arming plan: fire `kind` on the observed access every `period`
 * accesses (counted from arming), up to `count` total fires, each on
 * the address of the triggering access. The service harness
 * uses it for misspeculation *storms* -- a burst of LoadStale events
 * dense enough to drive a FASE into its abort budget -- but any
 * per-access fault kind works.
 */
class PeriodicPlan : public FaultPlan
{
  public:
    PeriodicPlan(FaultKind kind, std::uint64_t period,
                 std::uint64_t count, Tick delay = 0)
        : kind(kind), period(period ? period : 1), remaining(count),
          delay(delay)
    {
    }

    std::optional<FaultAction>
    onAccess(const AccessInfo &info) override
    {
        if (remaining == 0)
            return std::nullopt;
        if (++seen % period != 0)
            return std::nullopt;
        --remaining;
        return FaultAction{kind, info.addr, 0, delay, 0};
    }

    /** Fires left before the storm is spent. */
    std::uint64_t firesRemaining() const { return remaining; }

  private:
    FaultKind kind;
    std::uint64_t period;
    std::uint64_t remaining;
    Tick delay;
    std::uint64_t seen = 0;
};

/**
 * Cut power so that exactly `prefix` in-flight persists are durable.
 *
 * Counts persist-queue entries (writes) from the moment it is armed;
 * when entry prefix+1 is queued, the injector crashes keeping the
 * first `prefix` entries and throws PowerFailure. Arm it while the
 * queue is empty (e.g. at a FASE boundary) so the count and the
 * queue agree. If the run queues `prefix` entries or fewer, the plan
 * never fires and the run completes. The crash-point explorer builds
 * the same states from a recorded persist stream without re-running
 * the operation (see crash_explorer.hh); this plan is the re-executed
 * reference its equivalence test compares against.
 */
class PowerCutPlan : public FaultPlan
{
  public:
    explicit PowerCutPlan(std::size_t prefix) : prefix(prefix) {}

    std::optional<FaultAction>
    onAccess(const AccessInfo &info) override
    {
        if (fired || info.op != runtime::MemOp::Write)
            return std::nullopt;
        if (++writesSeen != prefix + 1)
            return std::nullopt;
        fired = true;
        return FaultAction{FaultKind::PowerCut, info.addr, prefix};
    }

  private:
    std::size_t prefix;
    std::size_t writesSeen = 0;
    bool fired = false;
};

/**
 * Cut power at durable prefix `prefix` with a *torn* frontier: the
 * word subset `mask` of persist prefix+1 is durable too. Trigger
 * logic matches PowerCutPlan (fires when write prefix+1 is queued,
 * arm on an empty persist queue); the crash itself goes through
 * PersistentMemory::crashTorn, so 8-byte atomicity is preserved but
 * multi-word entries land partially. The torn-write explorer mode
 * builds the same states without re-running the operation (see
 * crash_explorer.hh); this plan is the re-executed reference its
 * equivalence test compares against.
 */
class TornWritePlan : public FaultPlan
{
  public:
    TornWritePlan(std::size_t prefix, std::uint64_t mask)
        : prefix(prefix), mask(mask)
    {
    }

    std::optional<FaultAction>
    onAccess(const AccessInfo &info) override
    {
        if (fired || info.op != runtime::MemOp::Write)
            return std::nullopt;
        if (++writesSeen != prefix + 1)
            return std::nullopt;
        fired = true;
        return FaultAction{FaultKind::TornWrite, info.addr, prefix, 0,
                           mask};
    }

  private:
    std::size_t prefix;
    std::uint64_t mask;
    std::size_t writesSeen = 0;
    bool fired = false;
};

} // namespace pmemspec::faultinject

#endif // PMEMSPEC_FAULTINJECT_FAULT_PLAN_HH
