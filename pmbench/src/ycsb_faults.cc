/**
 * @file
 * ycsb_faults: the four designs through service::Service with 4
 * shards and 8 open-loop clients in simulated time (70/20/5/5
 * read/update/insert/scan over zipfian keys), while one fault of each
 * ServiceFault kind hits its own shard. The shard domains run on 2
 * host threads. It never runs the timing machine.
 */

#include <algorithm>
#include <set>

#include "bench.hh"
#include "service/service.hh"

namespace pmbench
{

namespace
{

using namespace pmemspec;
using service::FaultEvent;
using service::ServiceConfig;
using service::ServiceFault;
using service::ServiceResult;

/** Simulated run length: long enough that a batch is host-timeable. */
constexpr double kDurationUs = 640000;
constexpr unsigned kHostThreads = 2;

/** Every fault kind, each on its own shard, spread across the middle
 *  of the run (the schedule ycsb_service runs by default). */
std::vector<FaultEvent>
faultSchedule(const ServiceConfig &cfg)
{
    auto frac = [&](double f) {
        return static_cast<Tick>(static_cast<double>(cfg.duration) * f);
    };
    return {
        {frac(0.25), 1, ServiceFault::PowerCut, 0, 0},
        {frac(0.40), 2, ServiceFault::MediaPoison, 0, 0},
        {frac(0.55), 0, ServiceFault::MisspecStorm, 0, 0},
        {frac(0.70), 3, ServiceFault::LogPoison, 0, 0},
    };
}

/** Zero oracle violations, and >= 99% availability on every shard no
 *  fault was injected into (a storm on a non-speculative design is
 *  skipped, so its shard counts as unfaulted). */
std::string
sloViolation(const ServiceResult &r)
{
    if (r.oracle.violations != 0)
        return std::to_string(r.oracle.violations) +
               " shadow-map violation(s)";
    std::set<unsigned> faulted;
    for (const auto &f : r.faults)
        if (f.outcome != "skipped")
            faulted.insert(f.shard);
    for (std::size_t s = 0; s < r.shards.size(); ++s) {
        if (faulted.count(static_cast<unsigned>(s)) == 0 &&
            r.shards[s].availability() < 0.99)
            return "unfaulted shard " + std::to_string(s) +
                   " availability " +
                   std::to_string(r.shards[s].availability());
    }
    return "";
}

class YcsbFaults final : public Workload
{
  public:
    explicit YcsbFaults(std::uint64_t seed)
    {
        base.shards = 4;
        base.clients = 8;
        base.duration = nsToTicks(1000.0 * kDurationUs);
        base.simThreads = kHostThreads;
        base.seed = seed;
        base.faults = faultSchedule(base);
    }

    Batch run(Tracer &tr) override;

  private:
    ServiceConfig base;
};

Batch
YcsbFaults::run(Tracer &tr)
{
    const auto designs = persistency::allDesigns();
    const auto &dnames = designNames();
    Batch out;

    std::vector<std::unique_ptr<service::Service>> svcs;
    const auto t0 = Clock::now();
    {
        Scope setup(tr, "setup");
        for (std::size_t d = 0; d < designs.size(); ++d) {
            Scope s(tr, "service.build", static_cast<int>(d),
                    static_cast<int>(d));
            ServiceConfig cfg = base;
            cfg.design = designs[d];
            svcs.push_back(std::make_unique<service::Service>(cfg));
        }
    }
    out.setupS = secondsSince(t0);

    auto &ex = out.exact;
    std::uint64_t offered = 0, succeeded = 0, retries = 0, shed = 0,
                  degraded = 0, recoveries = 0, checks = 0;
    std::vector<std::uint64_t> shardOffered(base.shards, 0);
    for (std::size_t d = 0; d < designs.size(); ++d) {
        ServiceResult r;
        {
            Scope s(tr, "service.run", static_cast<int>(d),
                    static_cast<int>(d));
            r = svcs[d]->run();
        }
        offered += r.offered;
        succeeded += r.succeeded;
        retries += r.retries;
        shed += r.shedRejects;
        degraded += r.degradedRejects;
        checks += r.oracle.checks;
        for (std::size_t s = 0; s < r.shards.size(); ++s) {
            recoveries += r.shards[s].recoveries;
            shardOffered[s] += r.shards[s].offered;
        }
        const std::string &dn = dnames[d];
        ex["model.client_p50_ns." + dn] =
            static_cast<double>(r.latencyQuantile(0.50)) / ticksPerNs;
        ex["model.client_p99_ns." + dn] =
            static_cast<double>(r.latencyQuantile(0.99)) / ticksPerNs;

        ++out.attempted;
        const std::string why = sloViolation(r);
        if (!why.empty()) {
            ++out.failed;
            out.errors.push_back("ycsb_faults: " + dn + ": " + why);
        }
    }
    ex["service.offered"] = static_cast<double>(offered);
    ex["service.succeeded"] = static_cast<double>(succeeded);
    ex["service.retries"] = static_cast<double>(retries);
    ex["service.shed_rejects"] = static_cast<double>(shed);
    ex["service.degraded_rejects"] = static_cast<double>(degraded);
    ex["service.recoveries"] = static_cast<double>(recoveries);
    ex["service.oracle_checks"] = static_cast<double>(checks);
    double sum = 0, peak = 0;
    for (auto v : shardOffered) {
        sum += static_cast<double>(v);
        peak = std::max(peak, static_cast<double>(v));
    }
    ex["service.shard_imbalance"] =
        sum > 0 ? peak * static_cast<double>(shardOffered.size()) / sum : 0;

    out.work = succeeded;
    out.successRatio = offered ? static_cast<double>(succeeded) /
                                     static_cast<double>(offered)
                               : 1;
    return out;
}

} // namespace

std::unique_ptr<Workload>
makeYcsbFaults(std::uint64_t seed)
{
    return std::make_unique<YcsbFaults>(seed);
}

} // namespace pmbench
