/**
 * @file
 * Configuration of the always-on service harness.
 *
 * The service wraps N independent KvStore shards (each with its own
 * PersistentMemory, FaseRuntime and FaultInjector -- a failure
 * domain) behind a population of open-loop clients issuing a
 * YCSB-style operation mix over zipfian keys. A fault schedule
 * injects power cuts, media poison and misspeculation storms into
 * chosen shards mid-flight; the harness measures what a client of
 * the service experiences while the runtime recovers.
 *
 * Everything here is simulated time (Tick = ps) and seeded RNG:
 * one (config, design) pair always produces the same run.
 */

#ifndef PMEMSPEC_SERVICE_SERVICE_CONFIG_HH
#define PMEMSPEC_SERVICE_SERVICE_CONFIG_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "persistency/design.hh"

namespace pmemspec::service
{

/** Client-visible operation kinds (the YCSB mix). */
enum class OpKind : std::uint8_t
{
    Read,
    Update,
    Insert,
    Scan,
};

/** Operation mix ratios; must sum to 1 (checked at run start). */
struct OpMix
{
    double read = 0.70;
    double update = 0.20;
    double insert = 0.05;
    double scan = 0.05;
};

/** Client-side retry policy: deterministic bounded backoff plus a
 *  per-op deadline measured from the first submission. */
struct RetryConfig
{
    Tick backoffBase = nsToTicks(1000);  ///< first retry delay
    Tick backoffCap = nsToTicks(32000);  ///< exponential clamp
    Tick opDeadline = nsToTicks(400000); ///< give up after this
};

/** Fault kinds the online scheduler can inject into one shard. */
enum class ServiceFault : std::uint8_t
{
    /** Power cut mid-op at a persist prefix (arm a PowerCutPlan;
     *  `a` = prefix); the shard recovers with recoverAll and resumes
     *  serving. The cut also ends a storm armed on that shard. */
    PowerCut,
    /** Poison one 8-byte word of a live value slab: reads of that
     *  key raise MediaError until the shard quarantines the item. */
    MediaPoison,
    /** Poison the undo log's entry-count word: the next recovery
     *  cannot vouch for the image and the shard degrades to
     *  read-only instead of panicking. */
    LogPoison,
    /** Re-arming LoadStale storm (PMEM-Spec only): repeated
     *  misspeculation aborts until the abort budget trips and the
     *  service sheds load. `a` = fire period in accesses, `b` =
     *  total fires. A power cut on the shard ends it. */
    MisspecStorm,
};

const char *serviceFaultName(ServiceFault f);

/** One scheduled fault. */
struct FaultEvent
{
    Tick at = 0;        ///< injection time (simulated)
    unsigned shard = 0; ///< target failure domain
    ServiceFault kind = ServiceFault::PowerCut;
    std::uint64_t a = 0; ///< kind-specific (see ServiceFault)
    std::uint64_t b = 0;
};

/** The whole harness configuration. */
struct ServiceConfig
{
    unsigned shards = 4;
    unsigned clients = 8;

    /** Preloaded key space; key k lives on shard k % shards. */
    std::uint64_t keySpace = 2048;
    double zipfTheta = 0.99;
    OpMix mix;
    /** Items visited by one Scan (stride `shards`, so the scan stays
     *  inside one failure domain). */
    unsigned scanLen = 8;

    /** Open-loop arrivals: each client submits a new op every
     *  `interArrival` ticks regardless of completions. The default
     *  provisions the service at ~0.7 utilisation for the *slowest*
     *  design (IntelX86), so availability measures fault handling,
     *  not overload. */
    Tick interArrival = nsToTicks(64000);
    /** Simulated run length; arrivals stop here, in-flight ops and
     *  retries drain to completion. */
    Tick duration = nsToTicks(32000000); // 32 ms

    RetryConfig retry;

    /** Per-shard FASE abort budget (small, so a misspeculation storm
     *  trips it instead of livelocking). */
    std::uint64_t abortBudget = 64;
    /** Load-shed window entered when a shard exhausts its abort
     *  budget: arrivals are rejected cheaply until it elapses. */
    Tick shedWindow = nsToTicks(20000);

    /** Shard sizing. */
    std::size_t pmBytesPerShard = std::size_t{1} << 22;
    std::size_t buckets = 512;
    std::uint32_t valueBytes = 128;
    std::size_t logBytes = std::size_t{1} << 16;

    std::uint64_t seed = 1;
    persistency::Design design = persistency::Design::PmemSpec;

    /** Host threads for the domain-parallel run (one independent
     *  simulation domain per shard; see DESIGN.md section 12).
     *  0 = hardware concurrency. The result is byte-identical for
     *  any value -- this knob trades wall-clock only. */
    unsigned simThreads = 1;

    /** Sample per-shard time-series metrics and the per-FASE-site
     *  speculation profile into the result (off by default: when off
     *  the run and its JSON are bit-for-bit the same as before the
     *  metrics layer existed). */
    bool metrics = false;
    /** Simulated sampling cadence for the time series. */
    Tick metricsInterval = nsToTicks(500000); // 500 us

    /** The fault schedule (may be empty for a clean baseline run). */
    std::vector<FaultEvent> faults;

    /** Transition flight-recorder ring capacity (entries). */
    std::size_t flightEntries = 64;
};

} // namespace pmemspec::service

#endif // PMEMSPEC_SERVICE_SERVICE_CONFIG_HH
