/**
 * @file
 * Serve-through-failure: the YCSB-style service harness under chaos.
 *
 * Runs the sharded always-on service (src/service) once per selected
 * persistency design: open-loop zipfian clients against per-shard
 * failure domains while the fault scheduler injects power cuts,
 * poisoned media and misspeculation storms mid-flight. Reports
 * client-visible SLOs -- throughput, p50/p95/p99/p999 latency,
 * availability, time-to-recover per fault -- plus the consistency
 * oracle's verdict, per design.
 *
 * The default chaos script exercises every fault kind on a different
 * shard; `--faults` replaces it (`--faults none` runs fault-free,
 * `--faults powercut:1:500` cuts power on shard 1 at t=500us -- the
 * CI smoke configuration). `--slo` turns the acceptance criteria into
 * the exit code: zero oracle violations and >= 99% availability on
 * every shard a fault was not injected into, of which there must be
 * at least one.
 *
 * Each (config, design) run is a deterministic discrete-event
 * simulation; --jobs parallelises across designs and --sim-threads
 * parallelises the per-shard simulation domains inside one run
 * (DESIGN.md section 12). The JSON is byte-identical at any --jobs
 * or --sim-threads value.
 *
 * The flags are declared to the shared cli::Parser: --jobs, --json,
 * --designs, --metrics and --metrics-interval-us are the figure
 * binaries' own declarations (bench::CommonOptions), the rest are
 * this harness's. Counts are digits only; --shards, --clients,
 * --keys, --arrival-ns and --duration-us must be positive, and every
 * --faults spec must name an existing shard and fire before the run
 * ends. A usage error exits 2, a failed --slo gate exits 1.
 */

#include <algorithm>
#include <cstdio>
#include <set>

#include "bench_util.hh"
#include "core/sweep.hh"
#include "service/service.hh"

using namespace pmemspec;
using service::FaultEvent;
using service::ServiceConfig;
using service::ServiceFault;
using service::ServiceResult;

namespace
{

bool
faultKindFromName(const std::string &name, ServiceFault &out)
{
    if (name == "powercut") {
        out = ServiceFault::PowerCut;
    } else if (name == "poison") {
        out = ServiceFault::MediaPoison;
    } else if (name == "logpoison") {
        out = ServiceFault::LogPoison;
    } else if (name == "storm") {
        out = ServiceFault::MisspecStorm;
    } else {
        return false;
    }
    return true;
}

/** Parse a --faults list into @p out; "" or why it was refused. */
std::string
parseFaults(const std::string &list, std::vector<FaultEvent> &out)
{
    out.clear();
    if (list == "none")
        return {};
    for (const auto &spec : cli::split(list, ',')) {
        const auto field = cli::split(spec, ':');
        if (field.size() != 3)
            return "fault spec '" + spec + "' is not kind:shard:at_us";
        FaultEvent ev;
        if (!faultKindFromName(field[0], ev.kind))
            return "unknown fault kind in '" + spec + "'";
        std::uint64_t shard = 0, atUs = 0;
        std::string why = cli::readCount(
            "fault shard", field[1], cli::Zero::Allowed,
            std::numeric_limits<unsigned>::max(), shard);
        // Bounded so the conversion to ticks cannot overflow.
        if (why.empty())
            why = cli::readCount(
                "fault at_us", field[2], cli::Zero::Allowed,
                std::numeric_limits<Tick>::max() / nsToTicks(1000.0),
                atUs);
        if (!why.empty())
            return why;
        ev.shard = static_cast<unsigned>(shard);
        ev.at = nsToTicks(1000.0 * static_cast<double>(atUs));
        out.push_back(ev);
    }
    return {};
}

/** The default chaos script: every fault kind, each on its own
 *  shard, spread across the middle of the run. */
std::vector<FaultEvent>
defaultFaults(const ServiceConfig &cfg)
{
    auto frac = [&](double f) {
        return static_cast<Tick>(static_cast<double>(cfg.duration) * f);
    };
    std::vector<FaultEvent> out;
    out.push_back({frac(0.25), 1 % cfg.shards,
                   ServiceFault::PowerCut, 0, 0});
    out.push_back({frac(0.40), 2 % cfg.shards,
                   ServiceFault::MediaPoison, 0, 0});
    out.push_back({frac(0.55), 0, ServiceFault::MisspecStorm, 0, 0});
    out.push_back({frac(0.70), 3 % cfg.shards,
                   ServiceFault::LogPoison, 0, 0});
    return out;
}

/** The acceptance gate: no oracle violations, and every shard that
 *  had no fault injected stayed >= 99% available. A run that faulted
 *  every shard checked no availability at all, so it fails too.
 *  Returns "" on a pass, else why the gate failed. */
std::string
sloFailure(const ServiceResult &res)
{
    if (res.oracle.violations != 0)
        return std::to_string(res.oracle.violations) +
               " oracle violation(s)";
    std::set<unsigned> faulted;
    for (const auto &f : res.faults)
        if (f.outcome != "skipped")
            faulted.insert(f.shard);
    if (faulted.size() >= res.shards.size())
        return "every shard had a fault, so no shard's availability "
               "was checked";
    for (std::size_t s = 0; s < res.shards.size(); ++s) {
        if (faulted.count(static_cast<unsigned>(s)))
            continue;
        if (res.shards[s].availability() < 0.99)
            return "unfaulted shard " + std::to_string(s) +
                   " availability " +
                   std::to_string(res.shards[s].availability()) +
                   " < 0.99";
    }
    return {};
}

} // namespace

int
main(int argc, char **argv)
{
    ServiceConfig base;
    bench::CommonOptions opt;
    opt.metrics.interval = base.metricsInterval;
    std::uint64_t durationUs = base.duration / ticksPerNs / 1000;
    std::uint64_t arrivalNs = base.interArrival / ticksPerNs;
    std::vector<FaultEvent> faults;
    bool explicitFaults = false;
    bool gateSlo = false;

    cli::Parser cli(argv[0]);
    cli.count("--duration-us", durationUs, cli::Zero::Refused,
              "simulated run length");
    cli.count("--shards", base.shards, cli::Zero::Refused,
              "failure domains");
    cli.count("--clients", base.clients, cli::Zero::Refused,
              "open-loop clients");
    cli.count("--keys", base.keySpace, cli::Zero::Refused,
              "preloaded key space");
    cli.count("--arrival-ns", arrivalNs, cli::Zero::Refused,
              "per-client inter-arrival time");
    cli.count("--seed", base.seed, cli::Zero::Allowed, "client RNG seed");
    cli.callback("--faults", "SPEC[,SPEC...]|none",
                 [&](const std::string &list) {
                     explicitFaults = true;
                     return parseFaults(list, faults);
                 },
                 "replace the default chaos script; SPEC is\n"
                 "kind:shard:at_us, kind one of powercut, poison,\n"
                 "logpoison, storm");
    cli.flag("--slo", gateSlo,
             "exit 1 unless: zero oracle violations and\n"
             "availability >= 0.99 on every shard without an\n"
             "injected fault, of which there is at least one\n"
             "(per design)");
    cli.count("--sim-threads", base.simThreads, cli::Zero::Allowed,
              "host threads over the per-shard simulation\n"
              "domains of one run (0 = host cores)");
    opt.declare(cli);
    cli.parseOrExit(argc, argv);
    base.duration = nsToTicks(1000.0 * static_cast<double>(durationUs));
    base.interArrival = nsToTicks(static_cast<double>(arrivalNs));
    base.metrics = opt.metrics.sample;
    base.metricsInterval = opt.metrics.interval;
    const auto &designs = opt.designs;

    // A fault that cannot fire would let --slo pass vacuously.
    for (const FaultEvent &f : faults) {
        if (f.shard >= base.shards)
            cli.fail("fault shard " + std::to_string(f.shard) +
                     " is out of range for --shards " +
                     std::to_string(base.shards));
        if (f.at >= base.duration)
            cli.fail("fault at_us " +
                     std::to_string(f.at / ticksPerNs / 1000) +
                     " is not before the end of the run "
                     "(--duration-us " + std::to_string(durationUs) +
                     ")");
    }

    // A changed duration moves the default chaos script with it.
    if (!explicitFaults)
        faults = defaultFaults(base);
    base.faults = faults;

    // One deterministic run per design; --jobs parallelises across
    // designs, cfg.simThreads across the shard domains inside each.
    std::vector<ServiceResult> results(designs.size());
    core::SweepRunner runner(opt.jobs);
    runner.forEach(designs.size(), [&](std::size_t i) {
        ServiceConfig cfg = base;
        cfg.design = designs[i];
        service::Service svc(cfg);
        results[i] = svc.run();
    });

    std::printf("# ycsb_service: %u shards, %u clients, %llu keys, "
                "%llu us, %zu fault(s)\n",
                base.shards, base.clients,
                static_cast<unsigned long long>(base.keySpace),
                static_cast<unsigned long long>(
                    base.duration / ticksPerNs / 1000),
                faults.size());
    std::printf("%-10s %12s %8s %9s %9s %9s %6s %6s\n", "design",
                "ops/s", "avail", "p50(ns)", "p99(ns)", "p999(ns)",
                "viol", "SLO");
    bool sloOk = true;
    core::ResultSink sink("ycsb_service");
    for (std::size_t i = 0; i < designs.size(); ++i) {
        const ServiceResult &r = results[i];
        const std::string why = sloFailure(r);
        const bool ok = why.empty();
        if (!ok)
            std::fprintf(stderr, "ycsb_service: %s fails the SLO: %s\n",
                         persistency::designName(designs[i]).c_str(),
                         why.c_str());
        sloOk = sloOk && ok;
        std::printf("%-10s %12.0f %8.4f %9llu %9llu %9llu %6llu %6s\n",
                    persistency::designName(designs[i]).c_str(),
                    r.throughputOpsPerSec(base.duration),
                    r.availability(),
                    static_cast<unsigned long long>(
                        r.latencyQuantile(0.50) / ticksPerNs),
                    static_cast<unsigned long long>(
                        r.latencyQuantile(0.99) / ticksPerNs),
                    static_cast<unsigned long long>(
                        r.latencyQuantile(0.999) / ticksPerNs),
                    static_cast<unsigned long long>(
                        r.oracle.violations),
                    ok ? "pass" : "FAIL");
        Json row = r.toJson(base.duration);
        row.set("slo_pass", Json(ok));
        sink.addRow("service", std::move(row));
    }

    sink.setMeta("shards", Json(base.shards));
    sink.setMeta("clients", Json(base.clients));
    sink.setMeta("keys", Json(base.keySpace));
    sink.setMeta("duration_ns", Json(base.duration / ticksPerNs));
    sink.setMeta("inter_arrival_ns",
                 Json(base.interArrival / ticksPerNs));
    sink.setMeta("seed", Json(base.seed));
    Json fj = Json::array();
    for (const auto &f : faults) {
        Json row = Json::object();
        row.set("kind", Json(service::serviceFaultName(f.kind)));
        row.set("shard", Json(f.shard));
        row.set("at_ns", Json(f.at / ticksPerNs));
        fj.push(std::move(row));
    }
    sink.setMeta("faults", std::move(fj));
    Json dj = Json::array();
    for (auto d : designs)
        dj.push(Json(persistency::designName(d)));
    sink.setMeta("designs", std::move(dj));
    // Only when on: metrics-off envelopes stay bit-for-bit unchanged.
    if (base.metrics) {
        Json mj = Json::object();
        mj.set("interval_us",
               Json(base.metricsInterval / ticksPerNs / 1000));
        sink.setMeta("metrics", std::move(mj));
    }
    sink.writeFile(opt.jsonPath);

    if (gateSlo && !sloOk) {
        std::fprintf(stderr, "ycsb_service: SLO gate FAILED\n");
        return 1;
    }
    return 0;
}
