/**
 * @file
 * The always-on service harness: open-loop clients over sharded
 * failure domains, with an online fault scheduler and a consistency
 * oracle.
 *
 * One Service::run() is a discrete-event simulation over simulated
 * ticks: client arrivals are open-loop (a new op every interArrival
 * ticks per client, regardless of completions), keys are
 * scrambled-zipfian, shards serve their queues FIFO, and the
 * scheduled FaultEvents fire into individual shards mid-flight.
 * Client-side failures retry on the BoundedBackoff schedule
 * under a per-op deadline; a shard that trips its abort budget opens
 * a load-shed window; a shard whose recovery cannot vouch for the
 * image degrades to read-only while the rest of the service keeps
 * serving.
 *
 * Execution is domain-parallel (DESIGN.md section 12): the
 * coordinator pre-generates every client's arrival/op stream
 * serially (client RNG is pure in (seed, client)), routes it by
 * shardOf(key) into per-shard op tapes, then runs one fully
 * self-contained domain per shard -- its own sim::EventQueue, Shard
 * (PersistentMemory + FaseRuntime + FaultInjector), shadow map and
 * fault schedule -- across cfg.simThreads host threads. Results are
 * stable-merged on simulated keys (tick, config order, shard), so
 * everything stays deterministic in (config, design): the same run
 * serializes to the same JSON bytes at any --sim-threads value.
 */

#ifndef PMEMSPEC_SERVICE_SERVICE_HH
#define PMEMSPEC_SERVICE_SERVICE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.hh"
#include "observe/metrics.hh"
#include "observe/spec_profile.hh"
#include "service/cost_model.hh"
#include "service/service_config.hh"
#include "service/shard.hh"

namespace pmemspec::service
{

/** One injected fault's client-visible timeline. */
struct FaultOutcome
{
    ServiceFault kind = ServiceFault::PowerCut;
    unsigned shard = 0;
    Tick injectedAt = 0;  ///< scheduler fired (fault armed/planted)
    Tick triggeredAt = 0; ///< fault manifested in an operation
    Tick recoveredAt = 0; ///< shard back to Serving (or safe-Degraded)
    /** recoveredAt - triggeredAt; 0 while pending. */
    Tick ttr = 0;
    /** "recovered", "degraded", "quarantined", "shed+recovered",
     *  "skipped" (storm on a non-speculative design) or "pending". */
    std::string outcome = "pending";
    std::uint64_t entriesReplayed = 0;
};

/** Per-shard client-visible totals. */
struct ShardMetrics
{
    std::uint64_t offered = 0;   ///< unique ops routed here
    std::uint64_t succeeded = 0; ///< completed in deadline
    std::uint64_t retries = 0;
    std::uint64_t shedRejects = 0;
    std::uint64_t degradedRejects = 0;
    ShardState finalState = ShardState::Serving;
    std::uint64_t recoveries = 0;

    double
    availability() const
    {
        return offered ? static_cast<double>(succeeded) /
                             static_cast<double>(offered)
                       : 1.0;
    }
};

/** Consistency-oracle verdict. */
struct OracleMetrics
{
    std::uint64_t checks = 0;
    std::uint64_t violations = 0;
    std::uint64_t lostKeys = 0;       ///< quarantined (media UE)
    std::uint64_t poisonSkipped = 0;  ///< unverifiable: poisoned
    std::uint64_t degradedSkipped = 0;
    std::vector<std::string> details; ///< first violations, verbatim
};

/** Everything one run produces. */
struct ServiceResult
{
    persistency::Design design = persistency::Design::PmemSpec;

    std::uint64_t offered = 0;
    std::uint64_t succeeded = 0;
    std::uint64_t deadlineFailures = 0;
    std::uint64_t retries = 0;
    std::uint64_t powerFailures = 0;
    std::uint64_t mediaErrors = 0;
    std::uint64_t budgetTrips = 0;
    std::uint64_t shedRejects = 0;
    std::uint64_t degradedRejects = 0;
    std::uint64_t quarantined = 0;

    /** Successful-op latencies in ticks, sorted once at merge time
     *  (percentile base; latencyQuantile asserts the order in debug
     *  builds). */
    std::vector<Tick> latencies;
    Tick lastCompletion = 0;

    std::vector<ShardMetrics> shards;
    std::vector<FaultOutcome> faults;
    OracleMetrics oracle;
    /** Transition flight-recorder ring, oldest first. */
    std::vector<std::string> transitions;

    /** Time-series metrics + speculation profile, populated only
     *  when cfg.metrics was on (the JSON row then carries "metrics"
     *  and "profile" sections; with metrics off the row is
     *  bit-for-bit what the pre-metrics harness emitted). */
    bool metricsEnabled = false;
    Tick metricsInterval = 0;
    std::vector<observe::MetricsSeries> shardSeries; ///< one per shard
    observe::MetricsSeries totalSeries; ///< element-wise shard sum
    observe::SpecProfile profile;       ///< merged across shards

    double availability() const;
    double throughputOpsPerSec(Tick duration) const;
    /** Exact nearest-rank percentile of the latency set, in ticks. */
    Tick latencyQuantile(double q) const;

    /** The "metrics" JSON section (interval + per-shard + total). */
    Json metricsJson() const;

    /** Deterministic envelope row (service table shape). */
    Json toJson(Tick duration) const;
};

/** See the file comment. */
class Service
{
  public:
    explicit Service(const ServiceConfig &cfg);
    ~Service();

    /** Preload, run the schedule, drain, verify. Reentrant per
     *  Service instance is NOT supported: build one per run. */
    ServiceResult run();

    const ServiceConfig &config() const { return cfg; }

  private:
    ServiceConfig cfg;
    CostModel cost;

    ServiceResult res;
    bool ran = false;
};

} // namespace pmemspec::service

#endif // PMEMSPEC_SERVICE_SERVICE_HH
