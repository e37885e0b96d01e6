/**
 * @file
 * Tests for the serve-through-failure service harness (src/service):
 * shard lifecycle under each injected fault kind, client-visible SLOs,
 * the consistency oracle, and run determinism.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "faultinject/fault_plan.hh"
#include "service/service.hh"
#include "service/zipfian.hh"

using namespace pmemspec;
using service::FaultEvent;
using service::OpKind;
using service::Service;
using service::ServiceConfig;
using service::ServiceFault;
using service::ServiceResult;
using service::Shard;
using service::ShardState;

namespace
{

/** A small, fast config: 2 shards, 4 clients, ~4 ms of sim time. */
ServiceConfig
tinyConfig()
{
    ServiceConfig cfg;
    cfg.shards = 2;
    cfg.clients = 4;
    cfg.keySpace = 256;
    cfg.interArrival = nsToTicks(32000);
    cfg.duration = nsToTicks(4000000);
    cfg.pmBytesPerShard = std::size_t{1} << 21;
    cfg.buckets = 128;
    return cfg;
}

/** FNV-1a of a string: pins a JSON row without spelling it out. */
std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t d = 1469598103934665603ULL;
    for (unsigned char b : s)
        d = (d ^ b) * 1099511628211ULL;
    return d;
}

const service::FaultOutcome &
outcomeOf(const ServiceResult &res, ServiceFault kind)
{
    for (const auto &f : res.faults)
        if (f.kind == kind)
            return f;
    ADD_FAILURE() << "no outcome for fault kind "
                  << service::serviceFaultName(kind);
    static service::FaultOutcome none;
    return none;
}

} // namespace

TEST(Zipfian, DeterministicAndSkewed)
{
    service::ZipfianGenerator z(1000, 0.99);
    Rng a(7), b(7);
    std::map<std::uint64_t, unsigned> hist;
    for (int i = 0; i < 20000; ++i) {
        const auto ka = z.next(a);
        ASSERT_EQ(ka, z.next(b)) << "stream not deterministic";
        ASSERT_LT(ka, 1000u);
        ++hist[ka];
    }
    // Skew: the hottest item (scrambled rank 0) dominates a uniform
    // share by an order of magnitude.
    const std::uint64_t hot =
        service::ZipfianGenerator::scramble(0) % 1000;
    EXPECT_GT(hist[hot], 20000u / 1000u * 10u);
}

TEST(Service, FaultFreeRunIsFullyAvailable)
{
    ServiceConfig cfg = tinyConfig();
    const ServiceResult res = Service(cfg).run();
    EXPECT_GT(res.offered, 100u);
    EXPECT_EQ(res.succeeded, res.offered);
    EXPECT_EQ(res.deadlineFailures, 0u);
    EXPECT_EQ(res.oracle.violations, 0u);
    EXPECT_GT(res.oracle.checks, res.offered / 2);
    for (const auto &m : res.shards) {
        EXPECT_EQ(m.finalState, ShardState::Serving);
        EXPECT_DOUBLE_EQ(m.availability(), 1.0);
        EXPECT_EQ(m.recoveries, 0u);
    }
    EXPECT_EQ(res.latencies.size(), res.succeeded);
    // Percentiles come off the sorted set.
    EXPECT_LE(res.latencyQuantile(0.50), res.latencyQuantile(0.99));
}

TEST(Service, RunsAreDeterministic)
{
    ServiceConfig cfg = tinyConfig();
    cfg.faults = {{cfg.duration / 4, 0, ServiceFault::PowerCut, 0, 0}};
    const std::string a =
        Service(cfg).run().toJson(cfg.duration).dump(2);
    const std::string b =
        Service(cfg).run().toJson(cfg.duration).dump(2);
    EXPECT_EQ(a, b);
}

TEST(Service, PowerCutRecoversWithoutViolations)
{
    ServiceConfig cfg = tinyConfig();
    cfg.faults = {{cfg.duration / 4, 0, ServiceFault::PowerCut, 0, 0}};
    const ServiceResult res = Service(cfg).run();

    EXPECT_EQ(res.oracle.violations, 0u);
    EXPECT_GE(res.powerFailures, 1u);
    const auto &f = outcomeOf(res, ServiceFault::PowerCut);
    EXPECT_EQ(f.outcome, "recovered");
    EXPECT_GT(f.triggeredAt, f.injectedAt);
    EXPECT_GT(f.ttr, 0u);
    // The cut shard is back; the other shard never blinked.
    EXPECT_EQ(res.shards[0].finalState, ShardState::Serving);
    EXPECT_GE(res.shards[0].recoveries, 1u);
    EXPECT_DOUBLE_EQ(res.shards[1].availability(), 1.0);
    EXPECT_EQ(res.shards[1].recoveries, 0u);
    // The interrupted op retried to completion inside its deadline.
    EXPECT_GE(res.retries, 1u);
}

TEST(Service, MediaPoisonQuarantinesOneKeyOnly)
{
    ServiceConfig cfg = tinyConfig();
    cfg.faults = {
        {cfg.duration / 4, 1, ServiceFault::MediaPoison, 0, 0}};
    const ServiceResult res = Service(cfg).run();

    EXPECT_EQ(res.oracle.violations, 0u);
    const auto &f = outcomeOf(res, ServiceFault::MediaPoison);
    EXPECT_EQ(f.outcome, "quarantined");
    EXPECT_EQ(res.quarantined, 1u);
    EXPECT_EQ(res.oracle.lostKeys, 1u);
    // One key traded for the shard: still Serving, no degradation.
    EXPECT_EQ(res.shards[1].finalState, ShardState::Serving);
    EXPECT_EQ(res.degradedRejects, 0u);
}

TEST(Service, LogPoisonDegradesOnlyThatShard)
{
    ServiceConfig cfg = tinyConfig();
    cfg.faults = {
        {cfg.duration / 4, 1, ServiceFault::LogPoison, 0, 0}};
    const ServiceResult res = Service(cfg).run();

    EXPECT_EQ(res.oracle.violations, 0u);
    const auto &f = outcomeOf(res, ServiceFault::LogPoison);
    EXPECT_EQ(f.outcome, "degraded");
    // No global panic: shard 1 is read-only, shard 0 untouched.
    EXPECT_EQ(res.shards[1].finalState, ShardState::Degraded);
    EXPECT_EQ(res.shards[0].finalState, ShardState::Serving);
    EXPECT_DOUBLE_EQ(res.shards[0].availability(), 1.0);
    // Writes bounced, reads kept flowing: the degraded shard stays
    // partially available instead of going dark.
    EXPECT_GT(res.degradedRejects, 0u);
    EXPECT_GT(res.shards[1].availability(), 0.3);
    EXPECT_LT(res.shards[1].availability(), 1.0);
    EXPECT_GT(res.oracle.degradedSkipped, 0u);
}

TEST(Service, MisspecStormShedsOnSpeculativeDesignOnly)
{
    ServiceConfig cfg = tinyConfig();
    cfg.abortBudget = 8;
    cfg.faults = {
        {cfg.duration / 4, 0, ServiceFault::MisspecStorm, 0, 0}};

    cfg.design = persistency::Design::PmemSpec;
    const ServiceResult spec = Service(cfg).run();
    EXPECT_EQ(spec.oracle.violations, 0u);
    EXPECT_GE(spec.budgetTrips, 1u);
    const auto &f = outcomeOf(spec, ServiceFault::MisspecStorm);
    EXPECT_EQ(f.outcome, "shed+recovered");
    EXPECT_EQ(spec.shards[0].finalState, ShardState::Serving);

    // No speculation, no storm: the fault cannot exist elsewhere.
    cfg.design = persistency::Design::IntelX86;
    const ServiceResult strict = Service(cfg).run();
    EXPECT_EQ(outcomeOf(strict, ServiceFault::MisspecStorm).outcome,
              "skipped");
    EXPECT_EQ(strict.budgetTrips, 0u);
    EXPECT_EQ(strict.succeeded, strict.offered);
}

TEST(Service, ShardApplyHandlesDegradedReads)
{
    // Unit-level: a degraded shard serves reads non-transactionally
    // and rejects writes, without touching the runtime.
    ServiceConfig cfg = tinyConfig();
    Shard sh(0, cfg);
    sh.preload(0, 0x42);
    sh.poisonLog();
    // First transactional op hits the poisoned log count word,
    // recovery refuses, the shard degrades.
    auto r = sh.apply(OpKind::Update, 0, 0x43);
    EXPECT_EQ(r.status, Shard::OpStatus::MediaError);
    EXPECT_EQ(sh.state(), ShardState::Degraded);

    auto rd = sh.apply(OpKind::Read, 0, 0);
    EXPECT_EQ(rd.status, Shard::OpStatus::Ok);
    EXPECT_EQ(rd.value, std::optional<std::uint8_t>{0x42})
        << "degraded read must serve the pre-fault value";
    auto wr = sh.apply(OpKind::Update, 0, 0x44);
    EXPECT_EQ(wr.status, Shard::OpStatus::RejectedDegraded);
}

TEST(Service, OracleReadsLeaveArmedStormUntouched)
{
    // The consistency oracle reads a shard between client ops (after
    // a recovery, or to settle a power cut's ambiguity). Those reads
    // must not advance the injector or spend a storm's fires: the
    // storm is aimed at client traffic.
    ServiceConfig cfg = tinyConfig();
    Shard sh(0, cfg);
    for (std::uint64_t k = 0; k < 16; ++k)
        sh.preload(k, 0x42);
    sh.armStorm(1, 1); // fire on the next observed access
    const std::uint64_t stales = sh.injector().loadStalesInjected();

    const bool consistent = sh.inspect(
        [](const pmds::KvStore &kv, const runtime::PersistentMemory &pm) {
            bool ok = kv.size() == 16 && kv.checkInvariants();
            for (std::uint64_t k = 0; k < 16; ++k) {
                ok = ok && kv.lookup(k) == std::optional<std::uint8_t>{0x42};
                if (auto region = kv.slabRegion(k))
                    ok = ok && pm.poisonedWordsIn(region->first,
                                                  region->second)
                                   .empty();
            }
            return ok;
        });
    EXPECT_TRUE(consistent);
    EXPECT_EQ(sh.injector().loadStalesInjected(), stales);
    EXPECT_TRUE(sh.stormActive()) << "the oracle spent the storm's fire";

    // Client traffic still meets the storm.
    sh.apply(OpKind::Read, 3, 0);
    EXPECT_EQ(sh.injector().loadStalesInjected(), stales + 1);
    EXPECT_FALSE(sh.stormActive());
}

namespace
{

/** Never fires; records the persist-queue depth at every write it
 *  is shown. */
class DepthProbe : public faultinject::FaultPlan
{
  public:
    explicit DepthProbe(std::vector<std::size_t> &depths) : depths(depths) {}

    std::optional<faultinject::FaultAction>
    onAccess(const faultinject::AccessInfo &info) override
    {
        if (info.op == runtime::MemOp::Write)
            depths.push_back(info.inFlight);
        return std::nullopt;
    }

  private:
    std::vector<std::size_t> &depths;
};

} // namespace

// A storm fire makes an update's first attempt abort at its commit,
// and the rollback drains the persist queue. A power cut armed across
// that drain must still mean crash(k) on the shard too: it fires at
// the write that makes the queue k+1 deep (so it keeps k persists and
// loses its frontier), or it never fires and the update commits.
TEST(Service, ShardPowerCutAcrossAStormDrainKeepsItsPrefix)
{
    auto update = [](std::optional<std::size_t> cut,
                     std::vector<std::size_t> *depths) {
        Shard sh(0, tinyConfig());
        for (std::uint64_t k = 0; k < 16; ++k)
            sh.preload(k, 0x42);
        sh.armStorm(1, 1); // the first access sets the flag
        if (depths)
            sh.injector().addPlan(std::make_unique<DepthProbe>(*depths));
        if (cut)
            sh.armPowerCut(*cut);
        return sh.apply(OpKind::Update, 3, 0x43);
    };

    // Queue depth at each write of the uncut update. Every run is
    // deterministic, so a cut run's writes up to the cut are these.
    std::vector<std::size_t> depths;
    const Shard::OpResult ref = update(std::nullopt, &depths);
    ASSERT_EQ(ref.status, Shard::OpStatus::Ok);
    ASSERT_EQ(ref.work.aborts, 1u);
    ASSERT_EQ(depths.size(), ref.work.writes);
    ASSERT_EQ(std::count(depths.begin(), depths.end(), 1u), 2)
        << "the abort must drain the queue";
    const std::size_t maxDepth =
        *std::max_element(depths.begin(), depths.end());

    for (std::size_t k = 0; k <= depths.size(); ++k) {
        SCOPED_TRACE("k " + std::to_string(k));
        const Shard::OpResult r = update(k, nullptr);
        EXPECT_EQ(r.status == Shard::OpStatus::PowerFailure, k < maxDepth);
        if (r.status == Shard::OpStatus::PowerFailure) {
            // The op's last write fired the cut.
            ASSERT_GE(r.work.writes, 1u);
            EXPECT_EQ(depths[r.work.writes - 1], k + 1);
        } else {
            EXPECT_EQ(r.status, Shard::OpStatus::Ok);
            EXPECT_EQ(r.work.writes, ref.work.writes);
        }
    }
}

// Plans see client ops only: the quarantine erase after a poisoned
// read runs with the injector detached, so an armed storm keeps its
// fire across it and an armed cut does not fire inside it. The cut
// then fires in the next client op and ends the storm with it.
TEST(Service, ShardQuarantineEraseIsHiddenFromPlans)
{
    Shard sh(0, tinyConfig());
    for (std::uint64_t k = 0; k < 16; ++k)
        sh.preload(k, 0x42);
    ASSERT_TRUE(sh.poisonValue(5));
    sh.armStorm(5, 1);  // the read faults after 4 accesses
    sh.armPowerCut(0);  // and writes nothing before it does
    const Shard::OpResult r = sh.apply(OpKind::Read, 5, 0);
    EXPECT_EQ(r.status, Shard::OpStatus::MediaError);
    EXPECT_EQ(r.quarantinedKey, std::optional<std::uint64_t>{5});
    EXPECT_EQ(r.work.reads, 4u);
    EXPECT_EQ(r.work.writes, 0u);
    EXPECT_EQ(sh.injector().loadStalesInjected(), 0u);
    EXPECT_TRUE(sh.stormActive())
        << "the quarantine erase spent the storm's fire";
    EXPECT_EQ(sh.injector().powerCutsInjected(), 0u)
        << "the cut fired inside the quarantine erase";

    const Shard::OpResult next = sh.apply(OpKind::Update, 3, 0x43);
    EXPECT_EQ(next.status, Shard::OpStatus::PowerFailure);
    EXPECT_EQ(sh.injector().powerCutsInjected(), 1u);
    EXPECT_FALSE(sh.stormActive()) << "the storm outlived the power cut";
    EXPECT_EQ(sh.state(), ShardState::Serving);
}

// Re-arming a cut replaces the armed one: only the new prefix fires.
TEST(Service, ShardReArmedCutReplacesTheArmedOne)
{
    Shard sh(0, tinyConfig());
    for (std::uint64_t k = 0; k < 16; ++k)
        sh.preload(k, 0x42);
    sh.armPowerCut(2);
    sh.armPowerCut(5);
    const Shard::OpResult r = sh.apply(OpKind::Update, 7, 0x45);
    EXPECT_EQ(r.status, Shard::OpStatus::PowerFailure);
    EXPECT_EQ(r.work.writes, 6u) << "the cut fired at another prefix";
    EXPECT_EQ(sh.injector().powerCutsInjected(), 1u);
}

TEST(Service, SimThreadsIsByteInvariantFaultFree)
{
    // The domain-parallel determinism contract (DESIGN.md section
    // 12): the merged result -- down to the JSON bytes -- must not
    // depend on the host thread count.
    ServiceConfig cfg = tinyConfig();
    cfg.simThreads = 1;
    const std::string seq =
        Service(cfg).run().toJson(cfg.duration).dump(2);
    for (unsigned threads : {2u, 3u, 4u}) {
        cfg.simThreads = threads;
        EXPECT_EQ(Service(cfg).run().toJson(cfg.duration).dump(2),
                  seq)
            << "simThreads=" << threads;
    }
}

TEST(Service, SimThreadsIsByteInvariantUnderFaults)
{
    // Same contract with every fault kind in flight (4 shards so
    // each fault kind lands on its own domain) and PMEM-Spec so the
    // storm actually sheds.
    ServiceConfig cfg = tinyConfig();
    cfg.shards = 4;
    cfg.abortBudget = 8;
    cfg.faults = {
        {cfg.duration / 4, 0, ServiceFault::PowerCut, 0, 0},
        {cfg.duration / 3, 1, ServiceFault::MediaPoison, 0, 0},
        {cfg.duration / 2, 2, ServiceFault::MisspecStorm, 0, 0},
        {cfg.duration / 2, 3, ServiceFault::LogPoison, 0, 0},
    };
    cfg.simThreads = 1;
    const std::string seq =
        Service(cfg).run().toJson(cfg.duration).dump(2);
    cfg.simThreads = 4;
    EXPECT_EQ(Service(cfg).run().toJson(cfg.duration).dump(2), seq);
}

TEST(Service, SimThreadsZeroMeansHardwareConcurrency)
{
    ServiceConfig cfg = tinyConfig();
    cfg.simThreads = 1;
    const std::string seq =
        Service(cfg).run().toJson(cfg.duration).dump(2);
    cfg.simThreads = 0;
    EXPECT_EQ(Service(cfg).run().toJson(cfg.duration).dump(2), seq);
}

TEST(Service, JsonRowCarriesSlos)
{
    ServiceConfig cfg = tinyConfig();
    cfg.faults = {{cfg.duration / 4, 0, ServiceFault::PowerCut, 0, 0}};
    const ServiceResult res = Service(cfg).run();
    const Json j = res.toJson(cfg.duration);
    for (const char *key :
         {"design", "offered", "succeeded", "availability",
          "throughput_ops_s", "latency", "events", "shards", "faults",
          "oracle", "transitions"}) {
        EXPECT_NE(j.find(key), nullptr) << key;
    }
    EXPECT_NE(j.find("latency")->find("p999_ns"), nullptr);
    EXPECT_EQ(j.find("shards")->size(), cfg.shards);
    EXPECT_EQ(j.find("faults")->size(), 1u);
    EXPECT_NE(j.find("oracle")->find("violations"), nullptr);
}

TEST(Service, ShardOpWorkMatchesTheObservedCounts)
{
    // One shard through a fixed script of every op kind and fault
    // path. The expected values were taken from the shard that
    // counted its work with an observer on every PM access; the PM's
    // own counts must give the same per-op work, aborts and fault
    // outcomes.
    struct Step
    {
        const char *what;
        std::function<Shard::OpResult(Shard &)> run;
        Shard::OpStatus status;
        service::OpWork work; ///< reads, readBytes, writes, writeBytes, aborts
        std::uint64_t stales; ///< LoadStale fires so far
        std::uint64_t cuts;   ///< power cuts so far
        bool storm;           ///< storm still armed after the op
    };
    using S = Shard::OpStatus;
    const std::vector<Step> script = {
        {"read hit", [](Shard &s) { return s.apply(OpKind::Read, 3, 0); },
         S::Ok, {24, 312, 45, 528, 0}, 0, 0, false},
        {"update", [](Shard &s) { return s.apply(OpKind::Update, 3, 0x43); },
         S::Ok, {10, 200, 15, 408, 0}, 0, 0, false},
        {"insert",
         [](Shard &s) { return s.apply(OpKind::Insert, 100, 0x44); },
         S::Ok, {14, 112, 42, 576, 0}, 0, 0, false},
        {"scan", [](Shard &s) { return s.apply(OpKind::Scan, 0, 0, 4, 1); },
         S::Ok, {96, 1248, 171, 2040, 0}, 0, 0, false},
        {"read miss", [](Shard &s) { return s.apply(OpKind::Read, 200, 0); },
         S::Miss, {1, 8, 3, 24, 0}, 0, 0, false},
        {"read poisoned",
         [](Shard &s) {
             EXPECT_TRUE(s.poisonValue(5));
             return s.apply(OpKind::Read, 5, 0);
         },
         S::MediaError, {4, 32, 0, 0, 0}, 0, 0, false},
        {"cut armed past the op",
         [](Shard &s) {
             s.armPowerCut(1000);
             return s.apply(OpKind::Read, 4, 0);
         },
         S::Ok, {24, 312, 45, 528, 0}, 0, 0, false},
        {"cut fires",
         [](Shard &s) {
             s.armPowerCut(2);
             return s.apply(OpKind::Update, 7, 0x45);
         },
         S::PowerFailure, {5, 160, 3, 168, 0}, 0, 1, false},
        {"after the cut",
         [](Shard &s) { return s.apply(OpKind::Update, 7, 0x46); },
         S::Ok, {25, 320, 51, 840, 0}, 0, 1, false},
        {"storm armed",
         [](Shard &s) {
             s.armStorm(100, 3);
             return s.apply(OpKind::Update, 8, 0x47);
         },
         S::Ok, {25, 320, 51, 840, 0}, 0, 1, true},
        {"storm fires", [](Shard &s) { return s.apply(OpKind::Read, 9, 0); },
         S::Ok, {148, 1544, 149, 1696, 2}, 3, 1, false},
        {"storm spent",
         [](Shard &s) { return s.apply(OpKind::Scan, 10, 0, 3, 1); },
         S::Ok, {72, 936, 129, 1536, 0}, 3, 1, false},
        // The storm sets the misspeculation flag, then the cut fires
        // in the same attempt: the power loss still reaches the shard,
        // which recovers and reports it. The cut ends the storm with
        // its second fire unspent. The insert is lost, so the read
        // misses.
        {"storm and cut",
         [](Shard &s) {
             s.armStorm(5, 2);
             s.armPowerCut(4);
             return s.apply(OpKind::Insert, 101, 0x48);
         },
         S::PowerFailure, {1, 8, 5, 160, 0}, 4, 2, false},
        {"after both", [](Shard &s) { return s.apply(OpKind::Read, 101, 0); },
         S::Miss, {1, 8, 3, 24, 0}, 4, 2, false},
    };

    Shard sh(0, tinyConfig());
    for (std::uint64_t k = 0; k < 16; ++k)
        sh.preload(k, 0x42);
    for (const Step &step : script) {
        SCOPED_TRACE(step.what);
        const Shard::OpResult r = step.run(sh);
        EXPECT_EQ(r.status, step.status);
        EXPECT_EQ(r.work.reads, step.work.reads);
        EXPECT_EQ(r.work.readBytes, step.work.readBytes);
        EXPECT_EQ(r.work.writes, step.work.writes);
        EXPECT_EQ(r.work.writeBytes, step.work.writeBytes);
        EXPECT_EQ(r.work.aborts, step.work.aborts);
        EXPECT_EQ(sh.injector().loadStalesInjected(), step.stales);
        EXPECT_EQ(sh.injector().powerCutsInjected(), step.cuts);
        EXPECT_EQ(sh.stormActive(), step.storm);
        EXPECT_EQ(sh.state(), ShardState::Serving);
    }
}

TEST(Service, PowerCutAndStormOnOneShardKeepTheirRow)
{
    // A power cut and a storm armed together on shard 0, then the
    // cut re-armed: the JSON row must not depend on the host thread
    // count, and it must equal the row pinned by its FNV-1a below
    // (both cuts trigger and recover; the first one ends the storm
    // before it trips the abort budget, so the storm stays
    // "pending" and nothing is shed).
    ServiceConfig cfg = tinyConfig();
    cfg.abortBudget = 8;
    cfg.faults = {
        {cfg.duration / 4, 0, ServiceFault::PowerCut, 0, 0},
        {cfg.duration / 4, 0, ServiceFault::MisspecStorm, 0, 0},
        {cfg.duration / 2, 0, ServiceFault::PowerCut, 5, 0},
    };
    cfg.simThreads = 1;
    const std::string seq =
        Service(cfg).run().toJson(cfg.duration).dump(2);
    cfg.simThreads = 2;
    EXPECT_EQ(Service(cfg).run().toJson(cfg.duration).dump(2), seq);
    EXPECT_EQ(fnv1a(seq), 0x472944c6a9824dcbULL) << seq;
}
