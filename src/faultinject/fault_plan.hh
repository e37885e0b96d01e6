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
 *
 * There is one live power cut, PowerCutPlan(prefix, mask): it fires
 * at the write that makes the in-flight persist queue prefix+1 deep,
 * so "prefix k" means the same thing here, in
 * PersistentMemory::crash(k) and in the crash explorer's recorded
 * stream (entry k is the frontier, the persist the cut loses first).
 * A non-zero mask tears that frontier instead of losing it whole.
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
     *  queue durable, lose the rest, throw PowerFailure. A non-zero
     *  mask makes that word subset of the frontier (persist
     *  prefix+1) durable too: a *torn* write, 8-byte atomicity held,
     *  block atomicity not. */
    PowerCut,
    /** Hold a persist arrival back on the (virtual) persist path
     *  without any racing read -- a benign reorder that must NOT
     *  raise an interrupt. */
    PersistDelay,
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
    /** In-flight persist-queue depth after the access (a write has
     *  just been queued as its youngest entry). */
    std::size_t inFlight;
};

/** What to fire, produced by a plan's trigger. */
struct FaultAction
{
    FaultKind kind;
    Addr addr = 0;          ///< faulting address (block-aligned use)
    std::size_t prefix = 0; ///< PowerCut: durable prefix
    Tick delay = 0;         ///< persist-path arrival delay (0 = default)
    /** PowerCut: word subset of the frontier entry made durable too
     *  (bit i = i-th overlapped 8-byte word; 0 = a clean cut).
     *  BitFlip: XOR mask applied to the word (0 means flip bit 0). */
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
 * Fires at the write that makes the in-flight persist queue
 * prefix+1 deep: the injector crashes keeping the first `prefix`
 * entries and throws PowerFailure. A non-zero `mask` tears the
 * frontier, persist prefix+1: that word subset of it lands too
 * (PersistentMemory::crashTorn) and PowerFailure::torn is set.
 *
 * Arm it while the queue is empty (e.g. at a FASE boundary). The
 * rule reads the queue, not a count of writes, so a drain in between
 * (an aborted attempt's rollback ends in persistAll()) cannot make
 * the cut keep its frontier: the plan waits until the queue regrows
 * to prefix+1. If the queue never gets that deep, the plan never
 * fires and the run completes. The crash-point explorer builds the
 * same states from a recorded persist stream without re-running the
 * operation (see crash_explorer.hh); this plan is the re-executed
 * reference its equivalence tests compare against.
 */
class PowerCutPlan : public FaultPlan
{
  public:
    explicit PowerCutPlan(std::size_t prefix, std::uint64_t mask = 0)
        : prefix(prefix), mask(mask)
    {
    }

    std::optional<FaultAction>
    onAccess(const AccessInfo &info) override
    {
        if (fired || info.op != runtime::MemOp::Write ||
            info.inFlight != prefix + 1)
            return std::nullopt;
        fired = true;
        return FaultAction{FaultKind::PowerCut, info.addr, prefix, 0,
                           mask};
    }

  private:
    std::size_t prefix;
    std::uint64_t mask;
    bool fired = false;
};

} // namespace pmemspec::faultinject

#endif // PMEMSPEC_FAULTINJECT_FAULT_PLAN_HH
