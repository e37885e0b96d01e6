/**
 * @file
 * One shard of the always-on service: an independent failure domain.
 *
 * Each shard owns its own functional PersistentMemory, VirtualOs,
 * FaseRuntime, KvStore and FaultInjector -- a power cut, poisoned
 * word or misspeculation storm in one shard cannot touch another.
 * Per-op work for the cost model is read off the PM's own access
 * counts.
 *
 * Faults are FaultPlans on the shard's injector: a power cut is a
 * PowerCutPlan(prefix), armed between ops on an empty persist queue,
 * so it fires at the write that makes the queue prefix+1 deep; a
 * storm is a PeriodicPlan of LoadStale fires. The injector is the
 * PM's only observer and is attached only while a plan is armed, so
 * with nothing armed an access reaches no observer. Plans see client
 * ops only: recovery, the quarantine erase and inspect() run with the
 * injector detached.
 *
 * A power cut disarms every plan on its shard, a storm included: the
 * rebooted machine carries no speculation episode over from before
 * the outage.
 *
 * Lifecycle on faults (all handled here, never propagated):
 *
 *  - PowerFailure  -> recoverAll(), back to Serving (crash TTR is
 *    charged by the service from the recovery report);
 *  - AbortBudgetExhausted -> recoverAll() resyncs the logs and the
 *    service opens a load-shed window;
 *  - MediaError    -> live-log rollback via recoverAll(); if the
 *    poison sits in a value slab the item is quarantined (erased):
 *    the key is lost, the shard is not;
 *  - UnrecoverableCorruption -> Degraded: reads keep being served
 *    from the (unvouched-for) image via non-transactional lookups,
 *    writes are rejected. No global panic.
 */

#ifndef PMEMSPEC_SERVICE_SHARD_HH
#define PMEMSPEC_SERVICE_SHARD_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "faultinject/fault_injector.hh"
#include "faultinject/fault_plan.hh"
#include "observe/spec_profile.hh"
#include "pmds/kv_store.hh"
#include "runtime/fase_runtime.hh"
#include "runtime/persistent_memory.hh"
#include "runtime/virtual_os.hh"
#include "service/cost_model.hh"
#include "service/service_config.hh"

namespace pmemspec::service
{

/** Shard availability state. */
enum class ShardState : std::uint8_t
{
    Serving,
    Recovering, ///< transient: inside a fault-handling pass
    Degraded,   ///< read-only: recovery refused to vouch for the image
};

const char *shardStateName(ShardState s);

/** See the file comment. */
class Shard
{
  public:
    Shard(unsigned id, const ServiceConfig &cfg);

    Shard(const Shard &) = delete;
    Shard &operator=(const Shard &) = delete;

    /** How one operation ended. */
    enum class OpStatus : std::uint8_t
    {
        Ok,               ///< committed (Read hit counts as Ok)
        Miss,             ///< committed, key absent
        PowerFailure,     ///< power cut mid-op; shard recovered
        AbortBudget,      ///< abort budget tripped; logs resynced
        MediaError,       ///< poisoned word hit; rolled back
        RejectedDegraded, ///< write refused in degraded mode
    };

    struct OpResult
    {
        OpStatus status = OpStatus::Ok;
        std::optional<std::uint8_t> value; ///< Read result on Ok
        OpWork work;                       ///< observed functional work
        /** Set when fault handling ran a recovery/rollback pass. */
        bool recovered = false;
        runtime::RecoveryReport report;
        /** The fault was a power cut (full restart TTR applies). */
        bool crashed = false;
        /** A poisoned item was quarantined (key lost). */
        std::optional<std::uint64_t> quarantinedKey;
    };

    /** Preload one key (no faults armed, not counted as traffic). */
    void preload(std::uint64_t key, std::uint8_t fill);

    /** Execute one client op functionally; never throws. `scan_len`
     *  and `stride` only apply to OpKind::Scan. */
    OpResult apply(OpKind op, std::uint64_t key, std::uint8_t fill,
                   unsigned scan_len = 0, std::uint64_t stride = 1);

    // ---- Online fault hooks (the service's fault scheduler) ----

    /** Arm (or re-arm) a mid-op power cut at persist prefix
     *  `prefix`; fires during the next op that queues enough
     *  persists, and disarms every plan of the shard when it does. */
    void armPowerCut(std::size_t prefix);

    /** Arm (or replace) a LoadStale storm: one fire every `period`
     *  accesses, `count` fires total. */
    void armStorm(std::uint64_t period, std::uint64_t count);

    /** True while an armed storm still has fires left. */
    bool stormActive() const;

    /** Poison one word of `key`'s value slab (offset 8, so the
     *  checker's 1-byte lookup stays readable while a full GET
     *  faults). @return false when the key is absent. */
    bool poisonValue(std::uint64_t key);

    /** Poison the undo log's entry-count word: the next recovery
     *  pass cannot verify the log and degrades the shard. */
    void poisonLog();

    /** Attach a per-FASE-site speculation profile (nullptr detaches).
     *  Registers this shard's named sites -- preload, one per OpKind,
     *  quarantine -- in a fixed order, so every domain's profile has
     *  an identical site table and merges byte-stably; also forwards
     *  the profile to the runtime for misspec/budget attribution. */
    void setSpecProfile(observe::SpecProfile *p);

    /** Window-residency attribution for the profile: the service's
     *  modeled busy time for one op at the op's site. */
    void
    noteServiceTime(OpKind op, Tick busy)
    {
        if (prof && prof->enabled())
            prof->recordResidency(siteFor(op), busy);
    }

    // ---- Introspection ----

    unsigned id() const { return shardId; }
    ShardState state() const { return state_; }

    /**
     * Read the shard outside client traffic, as the service's
     * consistency oracle does: returns f(kv, pm) with the injector
     * detached, so the reads neither advance an armed plan nor use
     * up fires a storm holds for client ops. This is the only access
     * to the store and PM from outside.
     */
    template <typename F>
    decltype(auto)
    inspect(F &&f)
    {
        inj->detach();
        struct Resync
        {
            Shard &shard;
            ~Resync() { shard.syncObserver(); }
        } resync{*this};
        return std::forward<F>(f)(std::as_const(*store),
                                  std::as_const(*pmem));
    }

    runtime::FaseRuntime &runtime() { return *rt; }
    faultinject::FaultInjector &injector() { return *inj; }
    const runtime::RecoveryReport &lastReport() const
    {
        return lastReport_;
    }
    std::uint64_t recoveries() const { return recoveryPasses; }

  private:
    /** Run recoverAll, absorbing UnrecoverableCorruption into the
     *  Degraded state. Fills `res.report` / `res.recovered`. */
    void recover(OpResult &res);

    /** Attach the injector while a power cut or a storm is armed,
     *  detach it once neither is. Never called from inside the
     *  observer. */
    void syncObserver();

    /** The FASE body of one op (throws the faults it hits). */
    void runOp(runtime::Transaction &tx, OpKind op,
               std::uint64_t key, std::uint8_t fill,
               unsigned scan_len, std::uint64_t stride,
               std::optional<std::uint8_t> &value, bool &present);

    unsigned shardId;
    ServiceConfig cfg;
    std::unique_ptr<runtime::PersistentMemory> pmem;
    std::unique_ptr<runtime::VirtualOs> os;
    std::unique_ptr<runtime::FaseRuntime> rt;
    std::unique_ptr<pmds::KvStore> store;
    std::unique_ptr<faultinject::FaultInjector> inj;

    ShardState state_ = ShardState::Serving;
    runtime::RecoveryReport lastReport_;
    std::uint64_t recoveryPasses = 0;

    /** The armed power cut, if any (owned by the injector). */
    faultinject::PowerCutPlan *cut = nullptr;
    /** The armed storm plan, if any (owned by the injector). */
    faultinject::PeriodicPlan *storm = nullptr;

    /** Per-FASE-site profile (owned by the service's domain). */
    observe::SpecProfile *prof = nullptr;
    unsigned sitePreload = 0;
    unsigned siteOp[4] = {0, 0, 0, 0}; ///< indexed by OpKind
    unsigned siteQuarantine = 0;
    unsigned siteFor(OpKind op) const
    {
        return siteOp[static_cast<std::size_t>(op)];
    }
};

} // namespace pmemspec::service

#endif // PMEMSPEC_SERVICE_SHARD_HH
