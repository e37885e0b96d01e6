#include "service.hh"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <map>
#include <optional>
#include <utility>

#include "common/backoff.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "service/zipfian.hh"
#include "sim/domain_pool.hh"
#include "sim/event_queue.hh"

namespace pmemspec::service
{

namespace
{

/** Fixed client-visible cost of a fast-path rejection (shed window,
 *  degraded write): the request never reaches the data path. */
constexpr Tick rejectLatency = nsToTicks(100);

/** Degraded-mode read: one non-transactional probe of the image. */
constexpr Tick degradedReadLatency = nsToTicks(300);

std::uint8_t
fillFor(std::uint64_t key, std::uint64_t salt)
{
    // Any deterministic non-zero byte works; mixing the key keeps
    // neighbouring keys distinguishable in post-mortems.
    const std::uint8_t b = static_cast<std::uint8_t>(
        ZipfianGenerator::scramble(key * 31 + salt));
    return b ? b : 0x5A;
}

/** One pre-generated client operation, routed to its shard's tape.
 *  All randomness (kind, key, fill) is drawn at tape-generation time,
 *  so domains replay tapes without touching any RNG. */
struct TapeOp
{
    Tick at = 0;          ///< arrival tick
    std::uint64_t id = 0; ///< global arrival order (tick, client)
    unsigned client = 0;
    OpKind kind = OpKind::Read;
    std::uint64_t key = 0;
    std::uint8_t fill = 0;
};

/** One fault routed to its target domain; `idx` is the position in
 *  cfg.faults, the merge tie-break that reproduces the global
 *  scheduler's firing order. */
struct ScheduledFault
{
    std::size_t idx = 0;
    FaultEvent ev;
};

struct DomainTransition
{
    Tick at = 0;
    std::string text;
};

struct DomainFault
{
    Tick at = 0;
    std::size_t idx = 0;
    FaultOutcome out;
};

/** Everything one shard domain produces; merged by Service::run. */
struct DomainResult
{
    std::uint64_t succeeded = 0;
    std::uint64_t deadlineFailures = 0;
    std::uint64_t retries = 0;
    std::uint64_t powerFailures = 0;
    std::uint64_t mediaErrors = 0;
    std::uint64_t budgetTrips = 0;
    std::uint64_t shedRejects = 0;
    std::uint64_t degradedRejects = 0;
    std::uint64_t quarantined = 0;

    /** Completion-order latencies; sorted globally at merge time. */
    std::vector<Tick> latencies;
    Tick lastCompletion = 0;

    ShardMetrics shard;
    std::vector<DomainFault> faults;
    OracleMetrics oracle;
    /** Bounded ring (cfg.flightEntries), emission order. Any entry
     *  of the merged global ring is in its domain's ring, so
     *  per-domain rings of the same capacity lose nothing. */
    std::vector<DomainTransition> transitions;

    /** Sampled time series + FASE-site profile (cfg.metrics only). */
    observe::MetricsSeries series;
    observe::SpecProfile profile;
};

/**
 * One shard's failure domain as an isolated simulation: its own
 * event queue, Shard (PM + runtime + injector), consistency shadow
 * and fault schedule. Runs on whichever pool thread picks it up;
 * shares only the immutable config and cost model.
 */
class Domain
{
  public:
    Domain(unsigned shardIdx, const ServiceConfig &config,
           const CostModel &costModel)
        : cfg(config), cost(costModel), s(shardIdx),
          shard(shardIdx, config)
    {
        if (cfg.metrics)
            buildMetrics();
    }

    DomainResult
    run(const std::vector<TapeOp> &tape,
        const std::vector<ScheduledFault> &faults)
    {
        // Preload this shard's slice of the key space (fault-free,
        // not counted as traffic); ascending key order, matching the
        // per-shard subsequence of the global preload sweep.
        for (std::uint64_t k = s; k < cfg.keySpace; k += cfg.shards) {
            const std::uint8_t fill = fillFor(k, 0);
            shard.preload(k, fill);
            shadow[k] = fill;
        }

        dr.shard.offered = tape.size();
        dr.latencies.reserve(tape.size());

        // Faults are scheduled before the tape, so at equal ticks a
        // fault event precedes arrivals (the fixed tie-break of the
        // domain-parallel determinism contract).
        for (const ScheduledFault &f : faults)
            eq.schedule(f.ev.at, [this, &f] { onFaultEvent(f); });
        for (const TapeOp &e : tape)
            eq.schedule(e.at, [this, &e] { arrive(e); });

        if (sampler)
            sampler->start();

        eq.run();

        dr.shard.finalState = shard.state();
        dr.shard.recoveries = shard.recoveries();
        verifyShard();
        if (cfg.metrics) {
            dr.series = reg.takeSeries();
            dr.profile = prof;
        }
        return std::move(dr);
    }

  private:
    /** Single-writer metrics/profile for this domain: gauges read
     *  only this domain's state, the sampler runs on this domain's
     *  event queue, and every domain registers identical columns and
     *  sites -- the merged output is the same for any thread count. */
    void
    buildMetrics()
    {
        shard.setSpecProfile(&prof);
        reg.addGauge("succeeded", [this] { return double(dr.succeeded); });
        reg.addGauge("retries", [this] { return double(dr.retries); });
        reg.addGauge("shed_rejects",
                     [this] { return double(dr.shedRejects); });
        reg.addGauge("fases_committed", [this] {
            return double(shard.runtime().fasesCommitted());
        });
        reg.addGauge("fases_aborted", [this] {
            return double(shard.runtime().fasesAborted());
        });
        reg.addGauge("recoveries",
                     [this] { return double(dr.shard.recoveries); });
        // Queueing backlog: how far the shard's busy-until horizon
        // sits past the current tick (service pressure).
        reg.addGauge("backlog_ns", [this] {
            const Tick now = eq.now();
            return freeAt > now ? double(freeAt - now) / ticksPerNs
                                : 0.0;
        });
        reg.addGauge("shed_window", [this] {
            return eq.now() < shedUntil ? 1.0 : 0.0;
        });
        reg.addGauge("state", [this] {
            return double(static_cast<unsigned>(shard.state()));
        });
        reg.addGauge("lat_mean_ns", [this] {
            return dr.latencies.empty()
                       ? 0.0
                       : latSumNs / double(dr.latencies.size());
        });
        sampler.emplace(eq, reg, cfg.metricsInterval);
    }
    struct PendingOp
    {
        std::uint64_t id = 0;
        unsigned client = 0;
        OpKind kind = OpKind::Read;
        std::uint64_t key = 0;
        std::uint8_t fill = 0;
        Tick firstSubmit = 0;
        unsigned attempts = 0;
        BoundedBackoff backoff{1, 1};
    };

    void
    arrive(const TapeOp &e)
    {
        PendingOp op;
        op.id = e.id;
        op.client = e.client;
        op.kind = e.kind;
        op.key = e.key;
        op.fill = e.fill;
        op.firstSubmit = e.at;
        op.backoff = BoundedBackoff{cfg.retry.backoffBase,
                                    cfg.retry.backoffCap};
        submit(std::move(op), e.at);
    }

    void
    noteTransition(Tick at, const std::string &msg)
    {
        // Bounded ring: the flight recorder keeps the most recent
        // transitions (oldest dropped first).
        if (dr.transitions.size() >= cfg.flightEntries)
            dr.transitions.erase(dr.transitions.begin());
        dr.transitions.push_back(
            {at, "t=" + std::to_string(at / ticksPerNs) + "ns shard" +
                     std::to_string(s) + " " + msg});
    }

    FaultOutcome *
    pendingFault(ServiceFault kind)
    {
        for (auto &f : dr.faults) {
            if (f.out.kind == kind && f.out.outcome == "pending")
                return &f.out;
        }
        return nullptr;
    }

    void
    checkRead(const PendingOp &op, const Shard::OpResult &r)
    {
        ++dr.oracle.checks;
        const auto it = shadow.find(op.key);
        const bool expectPresent = it != shadow.end();
        const bool gotPresent = r.status == Shard::OpStatus::Ok;
        std::string detail;
        if (expectPresent && !gotPresent) {
            detail = "read miss on committed key " +
                     std::to_string(op.key);
        } else if (!expectPresent && gotPresent) {
            detail = "ghost value on never-committed key " +
                     std::to_string(op.key);
        } else if (expectPresent && gotPresent &&
                   r.value !=
                       std::optional<std::uint8_t>{it->second}) {
            detail =
                "stale/wrong value on key " + std::to_string(op.key);
        }
        if (!detail.empty()) {
            ++dr.oracle.violations;
            if (dr.oracle.details.size() < 16)
                dr.oracle.details.push_back(detail);
        }
    }

    void
    resolveCrashAmbiguity(const PendingOp &op)
    {
        // The cut interrupted a write FASE: the runtime guarantees
        // all-or-nothing, so probe which side of the boundary the
        // durable image landed on and commit the shadow accordingly.
        if (op.kind != OpKind::Update && op.kind != OpKind::Insert)
            return; // reads/scans leave the mapping unchanged
        if (shard.state() != ShardState::Serving)
            return; // degraded: the oracle stops vouching here
        std::optional<std::uint8_t> now;
        try {
            now = shard.inspect(
                [&](const pmds::KvStore &kv,
                    const runtime::PersistentMemory &) {
                    return kv.lookup(op.key);
                });
        } catch (const runtime::MediaError &) {
            ++dr.oracle.poisonSkipped;
            return;
        }
        const auto it = shadow.find(op.key);
        ++dr.oracle.checks;
        if (now == std::optional<std::uint8_t>{op.fill}) {
            shadow[op.key] = op.fill; // committed just before the cut
        } else if ((it == shadow.end() && !now) ||
                   (it != shadow.end() &&
                    now == std::optional<std::uint8_t>{it->second})) {
            // rolled back cleanly: old mapping intact
        } else {
            ++dr.oracle.violations;
            if (dr.oracle.details.size() < 16)
                dr.oracle.details.push_back(
                    "crash left key " + std::to_string(op.key) +
                    " at neither boundary");
        }
    }

    void
    verifyShard()
    {
        if (shard.state() == ShardState::Degraded) {
            ++dr.oracle.degradedSkipped;
            return;
        }
        shard.inspect([&](const pmds::KvStore &kv,
                          const runtime::PersistentMemory &pm) {
            std::uint64_t mine = 0;
            for (const auto &[key, fill] : shadow) {
                ++mine;
                ++dr.oracle.checks;
                std::optional<std::uint8_t> v;
                try {
                    v = kv.lookup(key);
                } catch (const runtime::MediaError &) {
                    ++dr.oracle.poisonSkipped;
                    continue;
                }
                auto region = kv.slabRegion(key);
                if (region && !pm.poisonedWordsIn(region->first,
                                                  region->second)
                                   .empty()) {
                    ++dr.oracle.poisonSkipped;
                    continue;
                }
                if (v != std::optional<std::uint8_t>{fill}) {
                    ++dr.oracle.violations;
                    if (dr.oracle.details.size() < 16)
                        dr.oracle.details.push_back(
                            "post-recovery mismatch on key " +
                            std::to_string(key));
                }
            }
            ++dr.oracle.checks;
            const std::size_t held = kv.size();
            if (held != mine) {
                ++dr.oracle.violations;
                if (dr.oracle.details.size() < 16)
                    dr.oracle.details.push_back(
                        "shard " + std::to_string(s) + " holds " +
                        std::to_string(held) + " items, shadow " +
                        std::to_string(mine));
            }
            ++dr.oracle.checks;
            if (!kv.checkInvariants()) {
                ++dr.oracle.violations;
                if (dr.oracle.details.size() < 16)
                    dr.oracle.details.push_back(
                        "shard " + std::to_string(s) +
                        " failed checkInvariants");
            }
        });
    }

    void
    complete(PendingOp &op, Tick at, bool ok)
    {
        if (at > dr.lastCompletion)
            dr.lastCompletion = at;
        if (ok && at - op.firstSubmit <= cfg.retry.opDeadline) {
            ++dr.succeeded;
            ++dr.shard.succeeded;
            dr.latencies.push_back(at - op.firstSubmit);
            latSumNs +=
                double(at - op.firstSubmit) / double(ticksPerNs);
        } else {
            ++dr.deadlineFailures;
        }
    }

    void
    retryOrFail(PendingOp op, Tick failedAt)
    {
        const Tick delay = op.backoff.next();
        const Tick next = failedAt + delay;
        if (next > op.firstSubmit + cfg.retry.opDeadline) {
            ++dr.deadlineFailures;
            if (failedAt > dr.lastCompletion)
                dr.lastCompletion = failedAt;
            return;
        }
        ++dr.retries;
        ++dr.shard.retries;
        ++op.attempts;
        eq.schedule(next, [this, op = std::move(op), next]() mutable {
            submit(std::move(op), next);
        });
    }

    void
    submit(PendingOp op, Tick at)
    {
        // Load-shed window: reject on the doorstep, the whole point
        // is that the data path never sees the request.
        if (at < shedUntil) {
            ++dr.shedRejects;
            ++dr.shard.shedRejects;
            retryOrFail(std::move(op), at + rejectLatency);
            return;
        }

        const ShardState before = shard.state();
        const Tick start = std::max(at, freeAt);
        Shard::OpResult r = shard.apply(op.kind, op.key, op.fill,
                                        cfg.scanLen, cfg.shards);

        if (before == ShardState::Degraded) {
            // Served off the degraded read-only path (or refused).
            if (r.status == Shard::OpStatus::Ok ||
                r.status == Shard::OpStatus::Miss) {
                const Tick done = start + degradedReadLatency;
                freeAt = done;
                complete(op, done, true);
            } else {
                ++dr.degradedRejects;
                ++dr.shard.degradedRejects;
                retryOrFail(std::move(op), at + rejectLatency);
            }
            return;
        }

        Tick busy = cost.opCost(cfg.design, r.work);
        Tick done = start + busy;
        // Functional-side window residency: the modeled service time
        // the op's FASEs spent on the shard.
        shard.noteServiceTime(op.kind, busy);

        if (r.recovered) {
            const Tick ttr = r.crashed ? cost.recoveryCost(r.report)
                                       : cost.rollbackCost(r.report);
            freeAt = done + ttr;
            if (shard.state() == ShardState::Degraded) {
                noteTransition(
                    done, "Serving->Degraded (" +
                              std::string(r.crashed ? "PowerCut"
                                                    : "corruption") +
                              ")");
            } else {
                noteTransition(done, "Serving->Recovering");
                noteTransition(freeAt, "Recovering->Serving");
            }
            // Attribute to the scheduled fault that manifested.
            ServiceFault kind = ServiceFault::PowerCut;
            std::string outcome = "recovered";
            if (r.crashed) {
                kind = ServiceFault::PowerCut;
            } else if (r.status == Shard::OpStatus::AbortBudget) {
                kind = ServiceFault::MisspecStorm;
                outcome = "shed+recovered";
            } else if (shard.state() == ShardState::Degraded) {
                kind = ServiceFault::LogPoison;
                outcome = "degraded";
            } else if (r.quarantinedKey) {
                kind = ServiceFault::MediaPoison;
                outcome = "quarantined";
            } else {
                kind = ServiceFault::MediaPoison;
                outcome = "recovered";
            }
            if (FaultOutcome *f = pendingFault(kind)) {
                f->triggeredAt = done;
                f->recoveredAt = freeAt;
                f->ttr = f->recoveredAt - f->triggeredAt;
                f->outcome = outcome;
                f->entriesReplayed = r.report.entriesReplayed;
            }
            ++dr.shard.recoveries;
            // The quarantine must reach the shadow before verifyShard
            // compares it against the store.
            if (r.quarantinedKey) {
                ++dr.quarantined;
                ++dr.oracle.lostKeys;
                shadow.erase(*r.quarantinedKey);
            }
            if (shard.state() != ShardState::Degraded)
                verifyShard();
            else
                ++dr.oracle.degradedSkipped;
        } else {
            freeAt = done;
        }

        switch (r.status) {
          case Shard::OpStatus::Ok:
          case Shard::OpStatus::Miss:
            if (op.kind == OpKind::Read || op.kind == OpKind::Scan)
                checkRead(op, r);
            else
                shadow[op.key] = op.fill;
            complete(op, done, true);
            return;
          case Shard::OpStatus::PowerFailure:
            ++dr.powerFailures;
            resolveCrashAmbiguity(op);
            retryOrFail(std::move(op), done);
            return;
          case Shard::OpStatus::AbortBudget:
            ++dr.budgetTrips;
            // Abort-budget-driven load shedding: give the storm room
            // to pass before the shard takes traffic again.
            shedUntil = freeAt + cfg.shedWindow;
            noteTransition(freeAt, "shed-window opened");
            retryOrFail(std::move(op), done);
            return;
          case Shard::OpStatus::MediaError:
            ++dr.mediaErrors;
            retryOrFail(std::move(op), done);
            return;
          case Shard::OpStatus::RejectedDegraded:
            // (handled above for pre-degraded shards; a shard that
            // degraded during *this* op lands here)
            ++dr.degradedRejects;
            ++dr.shard.degradedRejects;
            retryOrFail(std::move(op), done);
            return;
        }
    }

    void
    onFaultEvent(const ScheduledFault &f)
    {
        const FaultEvent &ev = f.ev;
        DomainFault df;
        df.at = eq.now();
        df.idx = f.idx;
        df.out.kind = ev.kind;
        df.out.shard = s;
        df.out.injectedAt = eq.now();
        switch (ev.kind) {
          case ServiceFault::PowerCut:
            shard.armPowerCut(ev.a ? static_cast<std::size_t>(ev.a)
                                   : 3);
            noteTransition(eq.now(), "power cut armed");
            break;
          case ServiceFault::MediaPoison: {
            // Victim: the hottest committed key of this shard
            // (walking the zipfian popularity ranks), so the poison
            // manifests under real traffic instead of hiding in the
            // cold tail.
            std::uint64_t victim = ev.a;
            bool found = ev.a != 0;
            if (!found) {
                for (std::uint64_t r = 0; r < cfg.keySpace; ++r) {
                    const std::uint64_t k =
                        ZipfianGenerator::scramble(r) % cfg.keySpace;
                    if (k % cfg.shards == s && shadow.count(k)) {
                        victim = k;
                        found = true;
                        break;
                    }
                }
            }
            if (!found || !shard.poisonValue(victim)) {
                df.out.outcome = "skipped";
            } else {
                noteTransition(eq.now(),
                               "value poisoned (key " +
                                   std::to_string(victim) + ")");
            }
            break;
          }
          case ServiceFault::LogPoison:
            shard.poisonLog();
            noteTransition(eq.now(), "undo log poisoned");
            break;
          case ServiceFault::MisspecStorm:
            if (cfg.design != persistency::Design::PmemSpec) {
                // No speculation, nothing to mis-speculate: the
                // fault cannot exist on this design.
                df.out.outcome = "skipped";
            } else {
                shard.armStorm(ev.a ? ev.a : 4, ev.b ? ev.b : 2000);
                noteTransition(eq.now(), "misspec storm armed");
            }
            break;
        }
        dr.faults.push_back(std::move(df));
    }

    const ServiceConfig &cfg;
    const CostModel &cost;
    unsigned s; ///< this domain's shard index
    Shard shard;
    sim::EventQueue eq;
    /** Committed key -> fill byte (this shard's keys only). */
    std::map<std::uint64_t, std::uint8_t> shadow;
    Tick freeAt = 0;    ///< shard busy-until
    Tick shedUntil = 0; ///< load-shed window end
    DomainResult dr;

    /** Metrics state (only populated when cfg.metrics). */
    observe::MetricsRegistry reg;
    observe::SpecProfile prof;
    std::optional<observe::MetricsSampler> sampler;
    double latSumNs = 0; ///< running sum for the lat_mean_ns gauge
};

} // namespace

double
ServiceResult::availability() const
{
    return offered ? static_cast<double>(succeeded) /
                         static_cast<double>(offered)
                   : 1.0;
}

double
ServiceResult::throughputOpsPerSec(Tick duration) const
{
    const double seconds =
        static_cast<double>(duration) / (1e9 * ticksPerNs);
    return seconds > 0 ? static_cast<double>(succeeded) / seconds : 0;
}

Tick
ServiceResult::latencyQuantile(double q) const
{
    if (latencies.empty())
        return 0;
    // The merge step sorts exactly once; quantiles only index.
    assert(std::is_sorted(latencies.begin(), latencies.end()));
    // Nearest-rank on the sorted set: exact and deterministic (the
    // same ranking convention Histogram::quantile interpolates with).
    const std::uint64_t rank = quantileRank(q, latencies.size());
    return latencies[rank - 1];
}

Json
ServiceResult::metricsJson() const
{
    Json m = Json::object();
    m.set("interval_us",
          Json(metricsInterval / ticksPerNs / 1000));
    Json sh = Json::array();
    for (std::size_t s = 0; s < shardSeries.size(); ++s) {
        Json row = Json::object();
        row.set("shard", Json(static_cast<std::uint64_t>(s)));
        row.set("series", shardSeries[s].toJson());
        sh.push(std::move(row));
    }
    m.set("shards", std::move(sh));
    m.set("total", totalSeries.toJson());
    return m;
}

Json
ServiceResult::toJson(Tick duration) const
{
    Json j = Json::object();
    j.set("design", Json(persistency::designName(design)));
    j.set("offered", Json(offered));
    j.set("succeeded", Json(succeeded));
    j.set("deadline_failures", Json(deadlineFailures));
    j.set("retries", Json(retries));
    j.set("availability", Json(availability()));
    j.set("throughput_ops_s", Json(throughputOpsPerSec(duration)));
    Json lat = Json::object();
    lat.set("p50_ns", Json(latencyQuantile(0.50) / ticksPerNs));
    lat.set("p95_ns", Json(latencyQuantile(0.95) / ticksPerNs));
    lat.set("p99_ns", Json(latencyQuantile(0.99) / ticksPerNs));
    lat.set("p999_ns", Json(latencyQuantile(0.999) / ticksPerNs));
    j.set("latency", std::move(lat));
    Json ev = Json::object();
    ev.set("power_failures", Json(powerFailures));
    ev.set("media_errors", Json(mediaErrors));
    ev.set("budget_trips", Json(budgetTrips));
    ev.set("shed_rejects", Json(shedRejects));
    ev.set("degraded_rejects", Json(degradedRejects));
    ev.set("quarantined", Json(quarantined));
    j.set("events", std::move(ev));
    Json sh = Json::array();
    for (std::size_t s = 0; s < shards.size(); ++s) {
        const ShardMetrics &m = shards[s];
        Json row = Json::object();
        row.set("shard", Json(static_cast<std::uint64_t>(s)));
        row.set("offered", Json(m.offered));
        row.set("succeeded", Json(m.succeeded));
        row.set("availability", Json(m.availability()));
        row.set("retries", Json(m.retries));
        row.set("shed_rejects", Json(m.shedRejects));
        row.set("degraded_rejects", Json(m.degradedRejects));
        row.set("recoveries", Json(m.recoveries));
        row.set("final_state", Json(shardStateName(m.finalState)));
        sh.push(std::move(row));
    }
    j.set("shards", std::move(sh));
    Json fs = Json::array();
    for (const FaultOutcome &f : faults) {
        Json row = Json::object();
        row.set("kind", Json(serviceFaultName(f.kind)));
        row.set("shard", Json(f.shard));
        row.set("injected_at_ns", Json(f.injectedAt / ticksPerNs));
        row.set("triggered_at_ns", Json(f.triggeredAt / ticksPerNs));
        row.set("recovered_at_ns", Json(f.recoveredAt / ticksPerNs));
        row.set("ttr_ns", Json(f.ttr / ticksPerNs));
        row.set("outcome", Json(f.outcome));
        row.set("entries_replayed", Json(f.entriesReplayed));
        fs.push(std::move(row));
    }
    j.set("faults", std::move(fs));
    Json orc = Json::object();
    orc.set("checks", Json(oracle.checks));
    orc.set("violations", Json(oracle.violations));
    orc.set("lost_keys", Json(oracle.lostKeys));
    orc.set("poison_skipped", Json(oracle.poisonSkipped));
    orc.set("degraded_skipped", Json(oracle.degradedSkipped));
    Json det = Json::array();
    for (const auto &d : oracle.details)
        det.push(Json(d));
    orc.set("details", std::move(det));
    j.set("oracle", std::move(orc));
    Json tr = Json::array();
    for (const auto &t : transitions)
        tr.push(Json(t));
    j.set("transitions", std::move(tr));
    // Appended last so metrics-off rows stay bit-for-bit what the
    // pre-metrics harness emitted.
    if (metricsEnabled) {
        j.set("metrics", metricsJson());
        j.set("profile", profile.toJson());
    }
    return j;
}

Service::Service(const ServiceConfig &config) : cfg(config)
{
    fatal_if(cfg.shards == 0 || cfg.clients == 0,
             "service needs at least one shard and one client");
    const double mixSum =
        cfg.mix.read + cfg.mix.update + cfg.mix.insert + cfg.mix.scan;
    fatal_if(std::abs(mixSum - 1.0) > 1e-9,
             "op mix ratios must sum to 1 (got %f)", mixSum);
    fatal_if(cfg.keySpace < cfg.shards,
             "key space smaller than the shard count");
    fatal_if(cfg.interArrival == 0,
             "open-loop arrivals need a non-zero inter-arrival time");
    for (const FaultEvent &ev : cfg.faults)
        fatal_if(ev.shard >= cfg.shards,
                 "fault targets shard %u of %u", ev.shard,
                 cfg.shards);

    res.shards.assign(cfg.shards, ShardMetrics{});
    res.design = cfg.design;
}

Service::~Service() = default;

ServiceResult
Service::run()
{
    fatal_if(ran, "Service::run is one-shot; build a new Service");
    ran = true;

    // ---- Serial phase: pre-generate every client's op stream in
    // global (tick, client) arrival order and route it into per-shard
    // tapes. Client RNG is pure in (seed, client) and the zipfian
    // generator is stateless per draw, so this reproduces exactly the
    // stream an interleaved global scheduler would have drawn.
    ZipfianGenerator zipf(cfg.keySpace, cfg.zipfTheta);
    std::vector<Rng> clientRng;
    clientRng.reserve(cfg.clients);
    for (unsigned c = 0; c < cfg.clients; ++c)
        clientRng.push_back(Rng::split(cfg.seed, c));

    // Fresh-insert keys start past the preloaded space, rounded up
    // so key % shards keeps routing them to the intended shard.
    const std::uint64_t keyBase =
        ((cfg.keySpace + cfg.shards - 1) / cfg.shards) * cfg.shards;
    std::vector<std::uint64_t> insertSeq(cfg.shards, 0);

    std::vector<std::vector<TapeOp>> tapes(cfg.shards);
    std::uint64_t opSeq = 0;
    // Client phases ((interArrival * c) / clients) ascend with c and
    // stay below interArrival, so round-major/client-minor iteration
    // IS global (tick, client) arrival order.
    for (std::uint64_t round = 0;; ++round) {
        bool any = false;
        for (unsigned c = 0; c < cfg.clients; ++c) {
            const Tick at = (cfg.interArrival * c) / cfg.clients +
                            round * cfg.interArrival;
            if (at >= cfg.duration)
                continue; // arrivals stop; later clients stop too
            any = true;
            Rng &rng = clientRng[c];
            TapeOp op;
            op.at = at;
            op.id = ++opSeq;
            op.client = c;
            const double roll = rng.uniform();
            if (roll < cfg.mix.read) {
                op.kind = OpKind::Read;
                op.key = zipf.next(rng);
            } else if (roll < cfg.mix.read + cfg.mix.update) {
                op.kind = OpKind::Update;
                op.key = zipf.next(rng);
                op.fill = fillFor(op.key, rng.next());
            } else if (roll < cfg.mix.read + cfg.mix.update +
                                  cfg.mix.insert) {
                op.kind = OpKind::Insert;
                // A fresh key on the same shard a zipfian draw
                // routes to, so insert load follows the popularity
                // distribution.
                const unsigned sh = static_cast<unsigned>(
                    zipf.next(rng) % cfg.shards);
                op.key = keyBase + sh + cfg.shards * insertSeq[sh]++;
                op.fill = fillFor(op.key, rng.next());
            } else {
                op.kind = OpKind::Scan;
                op.key = zipf.next(rng);
            }
            tapes[op.key % cfg.shards].push_back(op);
        }
        if (!any)
            break;
    }

    // Faults routed to their domains in global firing order
    // (tick, config index) -- the per-domain order pendingFault()
    // scans and the key the merge below restores.
    std::vector<ScheduledFault> allFaults;
    allFaults.reserve(cfg.faults.size());
    for (std::size_t i = 0; i < cfg.faults.size(); ++i)
        allFaults.push_back({i, cfg.faults[i]});
    std::stable_sort(allFaults.begin(), allFaults.end(),
                     [](const ScheduledFault &a,
                        const ScheduledFault &b) {
                         return a.ev.at < b.ev.at;
                     });
    std::vector<std::vector<ScheduledFault>> domainFaults(cfg.shards);
    for (const ScheduledFault &f : allFaults)
        domainFaults[f.ev.shard].push_back(f);

    // ---- Parallel phase: one self-contained domain per shard.
    // Each task touches only its own slot; the pool joins before the
    // merge reads anything.
    std::vector<DomainResult> parts(cfg.shards);
    sim::DomainPool pool(cfg.simThreads);
    pool.run(cfg.shards, [&](std::size_t i) {
        Domain d(static_cast<unsigned>(i), cfg, cost);
        parts[i] = d.run(tapes[i], domainFaults[i]);
    });

    // ---- Merge phase: host-thread-count invariant by construction;
    // every ordering below derives from simulated ticks, config
    // positions and shard indices.
    std::size_t totalLat = 0;
    for (const DomainResult &p : parts)
        totalLat += p.latencies.size();
    res.latencies.reserve(totalLat);

    std::vector<std::vector<DomainFault>> faultParts(cfg.shards);
    std::vector<std::vector<DomainTransition>> transParts(cfg.shards);
    for (unsigned s = 0; s < cfg.shards; ++s) {
        DomainResult &p = parts[s];
        res.shards[s] = p.shard;
        res.offered += p.shard.offered;
        res.succeeded += p.succeeded;
        res.deadlineFailures += p.deadlineFailures;
        res.retries += p.retries;
        res.powerFailures += p.powerFailures;
        res.mediaErrors += p.mediaErrors;
        res.budgetTrips += p.budgetTrips;
        res.shedRejects += p.shedRejects;
        res.degradedRejects += p.degradedRejects;
        res.quarantined += p.quarantined;
        res.latencies.insert(res.latencies.end(),
                             p.latencies.begin(), p.latencies.end());
        res.lastCompletion =
            std::max(res.lastCompletion, p.lastCompletion);
        res.oracle.checks += p.oracle.checks;
        res.oracle.violations += p.oracle.violations;
        res.oracle.lostKeys += p.oracle.lostKeys;
        res.oracle.poisonSkipped += p.oracle.poisonSkipped;
        res.oracle.degradedSkipped += p.oracle.degradedSkipped;
        for (auto &d : p.oracle.details) {
            if (res.oracle.details.size() < 16)
                res.oracle.details.push_back(std::move(d));
        }
        faultParts[s] = std::move(p.faults);
        transParts[s] = std::move(p.transitions);
    }

    // Metrics merge: per-shard series kept verbatim (shard order),
    // the aggregate summed element-wise in shard order, profiles
    // folded site-by-site -- all pure functions of simulated state,
    // so byte-identical for any host thread count.
    if (cfg.metrics) {
        res.metricsEnabled = true;
        res.metricsInterval = cfg.metricsInterval;
        res.shardSeries.reserve(cfg.shards);
        for (DomainResult &p : parts)
            res.shardSeries.push_back(std::move(p.series));
        res.totalSeries = observe::sumSeries(res.shardSeries);
        for (const DomainResult &p : parts)
            res.profile.mergeFrom(p.profile);
    }
    // Sort once; latencyQuantile only indexes from here on.
    std::sort(res.latencies.begin(), res.latencies.end());

    // Fault outcomes back in the global scheduler's firing order.
    auto faults = sim::mergeDomains(
        std::move(faultParts),
        [](const DomainFault &a, const DomainFault &b) {
            return a.at != b.at ? a.at < b.at : a.idx < b.idx;
        });
    res.faults.reserve(faults.size());
    for (DomainFault &f : faults)
        res.faults.push_back(std::move(f.out));

    // Transition flight recorder: merge by tick (ties: shard order),
    // then keep the most recent flightEntries. Any globally-recent
    // entry survives its domain ring of the same capacity, so this
    // equals a global ring fed in merged order.
    auto trans = sim::mergeDomains(
        std::move(transParts),
        [](const DomainTransition &a, const DomainTransition &b) {
            return a.at < b.at;
        });
    const std::size_t start = trans.size() > cfg.flightEntries
                                  ? trans.size() - cfg.flightEntries
                                  : 0;
    res.transitions.reserve(trans.size() - start);
    for (std::size_t i = start; i < trans.size(); ++i)
        res.transitions.push_back(std::move(trans[i].text));

    return res;
}

} // namespace pmemspec::service
