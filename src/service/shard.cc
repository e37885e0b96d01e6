#include "shard.hh"

#include "common/logging.hh"

namespace pmemspec::service
{

const char *
shardStateName(ShardState s)
{
    switch (s) {
      case ShardState::Serving:    return "Serving";
      case ShardState::Recovering: return "Recovering";
      case ShardState::Degraded:   return "Degraded";
    }
    return "unknown";
}

const char *
serviceFaultName(ServiceFault f)
{
    switch (f) {
      case ServiceFault::PowerCut:      return "PowerCut";
      case ServiceFault::MediaPoison:   return "MediaPoison";
      case ServiceFault::LogPoison:     return "LogPoison";
      case ServiceFault::MisspecStorm:  return "MisspecStorm";
    }
    return "unknown";
}

Shard::Shard(unsigned id, const ServiceConfig &config)
    : shardId(id), cfg(config)
{
    pmem = std::make_unique<runtime::PersistentMemory>(
        cfg.pmBytesPerShard);
    os = std::make_unique<runtime::VirtualOs>();
    // One runtime thread: the shard serves its queue serially, as a
    // single-threaded event-loop server would; concurrency lives at
    // the service layer (clients, queueing, other shards).
    rt = std::make_unique<runtime::FaseRuntime>(
        *pmem, *os, 1, runtime::RecoveryPolicy::Lazy, cfg.logBytes,
        runtime::LogGranularity::Word);
    rt->setAbortBudget(cfg.abortBudget);
    pmds::KvConfig kc;
    kc.buckets = cfg.buckets;
    kc.valueBytes = cfg.valueBytes;
    kc.lruTracking = true;
    store = std::make_unique<pmds::KvStore>(*pmem, kc);
    inj = std::make_unique<faultinject::FaultInjector>(*pmem, *os);
}

void
Shard::syncObserver()
{
    if (cut || stormActive())
        inj->attach();
    else
        inj->detach();
}

void
Shard::setSpecProfile(observe::SpecProfile *p)
{
    prof = p;
    rt->setSpecProfile(p);
    if (!prof)
        return;
    // Fixed registration order = identical site ids in every domain.
    sitePreload = prof->site("preload");
    siteOp[static_cast<std::size_t>(OpKind::Read)] = prof->site("read");
    siteOp[static_cast<std::size_t>(OpKind::Update)] =
        prof->site("update");
    siteOp[static_cast<std::size_t>(OpKind::Insert)] =
        prof->site("insert");
    siteOp[static_cast<std::size_t>(OpKind::Scan)] = prof->site("scan");
    siteQuarantine = prof->site("quarantine");
}

void
Shard::preload(std::uint64_t key, std::uint8_t fill)
{
    rt->runFase(0, [&](runtime::Transaction &tx) {
        store->set(tx, key, fill);
    }, sitePreload);
}

void
Shard::runOp(runtime::Transaction &tx, OpKind op, std::uint64_t key,
             std::uint8_t fill, unsigned scan_len,
             std::uint64_t stride, std::optional<std::uint8_t> &value,
             bool &present)
{
    switch (op) {
      case OpKind::Read:
        value = store->get(tx, key);
        present = value.has_value();
        break;
      case OpKind::Update:
      case OpKind::Insert:
        store->set(tx, key, fill);
        present = true;
        break;
      case OpKind::Scan:
        for (unsigned i = 0; i < scan_len; ++i) {
            auto v = store->get(tx, key + i * stride);
            if (i == 0) {
                value = v;
                present = v.has_value();
            }
        }
        break;
    }
}

Shard::OpResult
Shard::apply(OpKind op, std::uint64_t key, std::uint8_t fill,
             unsigned scan_len, std::uint64_t stride)
{
    OpResult res;
    if (state_ == ShardState::Degraded) {
        // Degraded mode: recovery refused to vouch for the durable
        // image, so nothing may be written -- but reads are still
        // served (non-transactionally: no LRU bump, no log append).
        if (op == OpKind::Read || op == OpKind::Scan) {
            try {
                res.value = store->lookup(key);
                res.status = res.value ? OpStatus::Ok : OpStatus::Miss;
            } catch (const runtime::MediaError &) {
                res.status = OpStatus::MediaError;
            }
        } else {
            res.status = OpStatus::RejectedDegraded;
        }
        syncObserver();
        return res;
    }

    // The op's work is what the PM served between here and the end
    // of its window, which comes before any recovery pass: aborted
    // and re-executed attempts count, recovery replay does not. Fault
    // handling is not client traffic either, so the window's end
    // detaches the injector until syncObserver() below.
    const runtime::PersistentMemory::AccessCounts start =
        pmem->accessCounts();
    bool inWindow = true;
    auto endWindow = [&] {
        if (!inWindow)
            return;
        inWindow = false;
        inj->detach();
        const auto &now = pmem->accessCounts();
        res.work.reads = now.reads - start.reads;
        res.work.readBytes = now.readBytes - start.readBytes;
        res.work.writes = now.writes - start.writes;
        res.work.writeBytes = now.writeBytes - start.writeBytes;
    };
    const std::uint64_t aborts0 = rt->fasesAborted();
    std::optional<std::uint8_t> value;
    bool present = false;
    try {
        rt->runFase(0, [&](runtime::Transaction &tx) {
            runOp(tx, op, key, fill, scan_len, stride, value, present);
        }, siteFor(op));
        res.status = present ? OpStatus::Ok : OpStatus::Miss;
        res.value = value;
    } catch (const faultinject::PowerFailure &) {
        endWindow();
        // The outage ends every armed fault, the storm with the cut.
        inj->clearPlans();
        cut = nullptr;
        storm = nullptr;
        res.status = OpStatus::PowerFailure;
        res.crashed = true;
        if (prof && prof->enabled())
            prof->recordAbort(siteFor(op),
                              observe::AbortCause::PowerCut);
        recover(res);
    } catch (const runtime::AbortBudgetExhausted &) {
        endWindow();
        res.status = OpStatus::AbortBudget;
        // The final attempt is already rolled back; recoverAll
        // resyncs every log (and attaches the trap window) before
        // the service reopens the shard behind a shed window.
        recover(res);
    } catch (const runtime::MediaError &) {
        endWindow();
        res.status = OpStatus::MediaError;
        if (prof && prof->enabled())
            prof->recordAbort(siteFor(op), observe::AbortCause::Media);
        // Roll the half-open FASE back from the live log before
        // anything else touches the image.
        recover(res);
        if (state_ == ShardState::Serving) {
            // If the poison sits in this key's value slab the item
            // is unreadable for good: quarantine it (erase never
            // reads the slab), trading one key for the shard.
            auto region = store->slabRegion(key);
            if (region && !pmem->poisonedWordsIn(region->first,
                                                 region->second)
                               .empty()) {
                try {
                    rt->runFase(0, [&](runtime::Transaction &tx) {
                        store->erase(tx, key);
                    }, siteQuarantine);
                    res.quarantinedKey = key;
                } catch (const runtime::UnrecoverableCorruption &e) {
                    lastReport_ = e.report;
                    state_ = ShardState::Degraded;
                } catch (...) {
                    recover(res);
                }
            }
        }
    } catch (const runtime::UnrecoverableCorruption &e) {
        // A live FASE's log failed verification mid-run (abortFase's
        // fail-safe); same verdict as a failed recovery.
        endWindow();
        res.status = OpStatus::MediaError;
        if (prof && prof->enabled())
            prof->recordAbort(siteFor(op),
                              observe::AbortCause::Corruption);
        res.recovered = true;
        res.report = e.report;
        lastReport_ = e.report;
        state_ = ShardState::Degraded;
    }
    endWindow();
    res.work.aborts = rt->fasesAborted() - aborts0;
    syncObserver();
    return res;
}

void
Shard::recover(OpResult &res)
{
    // Runs with the injector detached: recovery replay must not feed
    // armed plans (the service models it as happening before the
    // shard reopens for traffic).
    state_ = ShardState::Recovering;
    ++recoveryPasses;
    try {
        res.report = rt->recoverAll();
        state_ = ShardState::Serving;
    } catch (const runtime::UnrecoverableCorruption &e) {
        res.report = e.report;
        state_ = ShardState::Degraded;
    }
    res.recovered = true;
    lastReport_ = res.report;
}

void
Shard::armPowerCut(std::size_t prefix)
{
    inj->removePlan(cut);
    auto plan = std::make_unique<faultinject::PowerCutPlan>(prefix);
    cut = plan.get();
    inj->addPlan(std::move(plan));
    syncObserver();
}

void
Shard::armStorm(std::uint64_t period, std::uint64_t count)
{
    inj->removePlan(storm);
    auto plan = std::make_unique<faultinject::PeriodicPlan>(
        faultinject::FaultKind::LoadStale, period, count);
    storm = plan.get();
    inj->addPlan(std::move(plan));
    syncObserver();
}

bool
Shard::stormActive() const
{
    return storm != nullptr && storm->firesRemaining() > 0;
}

bool
Shard::poisonValue(std::uint64_t key)
{
    auto region = store->slabRegion(key);
    if (!region)
        return false;
    // Word 1, not word 0: the 1-byte checker lookup() stays
    // readable while any full-value GET faults.
    const Addr target =
        region->second > 8 ? region->first + 8 : region->first;
    inj->injectPoison(target);
    return true;
}

void
Shard::poisonLog()
{
    // The entry-count word: recovery reads it first and must refuse
    // the image when it is unreadable.
    inj->injectPoison(rt->logRegion(0).first);
}

} // namespace pmemspec::service
