/**
 * @file
 * Shared options of the bench binaries: `figures` (every table and
 * figure of Section 8 and every ablation) and ycsb_service.
 *
 * The common flags (--ops, --jobs, --json, --designs, --metrics,
 * --trace...; see --help or EXPERIMENTS.md) are declared to the
 * shared cli::Parser by BenchOptions::parse. ycsb_service declares
 * the CommonOptions subset too. --jobs 0 means one worker per host
 * core; a usage error exits 2.
 */

#ifndef PMEMSPEC_BENCH_BENCH_UTIL_HH
#define PMEMSPEC_BENCH_BENCH_UTIL_HH

#include <cstdio>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "common/cli.hh"
#include "common/logging.hh"
#include "common/trace.hh"
#include "core/experiment.hh"
#include "core/sweep.hh"
#include "observe/metrics.hh"

namespace pmemspec::bench
{

/** Default FASEs per thread (the paper runs 100K; throughput is
 *  steady-state, so a few hundred per thread give the same shape in
 *  seconds instead of hours). */
constexpr std::uint64_t defaultOps = 400;

/** The flags every bench binary shares, ycsb_service included. */
struct CommonOptions
{
    /** Sweep worker threads; 0 = hardware concurrency. */
    unsigned jobs = 0;
    /** Output path for the JSON results; empty = stdout only. */
    std::string jsonPath;
    std::vector<persistency::Design> designs =
        persistency::allDesigns();
    /** Time-series metrics + FASE speculation profile (off unless
     *  requested; off keeps bench JSON byte-identical to pre-metrics
     *  output). */
    observe::MetricsConfig metrics;

    /** Declare --jobs, --json, --designs, --metrics and
     *  --metrics-interval-us; the usage shows the current
     *  metrics.interval as the default. */
    void
    declare(cli::Parser &cli)
    {
        cli.count("--jobs", jobs, cli::Zero::Allowed,
                  "parallel workers (0 = host cores)");
        cli.string("--json", jsonPath, "PATH",
                   "write machine-readable results "
                   "(pmemspec-bench-v1)");
        cli.callback("--designs", "L",
                     [this](const std::string &list) {
                         return parseDesigns(list);
                     },
                     "comma list of IntelX86,DPO,HOPS,PMEM-Spec");
        cli.flag("--metrics", metrics.sample,
                 "sample time-series metrics + the FASE "
                 "speculation\nprofile into the JSON results");
        const Tick us = nsToTicks(1000.0);
        cli.callback(
            "--metrics-interval-us", "N",
            [this, us](const std::string &v) {
                std::uint64_t n = 0;
                std::string why = cli::readCount(
                    "--metrics-interval-us", v, cli::Zero::Refused,
                    std::numeric_limits<Tick>::max() / us, n);
                if (why.empty()) {
                    metrics.sample = true;
                    metrics.interval = us * n;
                }
                return why;
            },
            "sampling cadence in simulated us\n(implies --metrics; "
            "default " +
                std::to_string(metrics.interval / us) + ")");
    }

  private:
    std::string
    parseDesigns(const std::string &list)
    {
        std::vector<persistency::Design> out;
        for (const auto &name : cli::split(list, ',')) {
            persistency::Design d;
            if (!persistency::designFromName(name, d))
                return "unknown design '" + name + "'";
            out.push_back(d);
        }
        designs = std::move(out);
        return {};
    }
};

/** Parsed command line of `figures`. */
struct BenchOptions : CommonOptions
{
    std::uint64_t ops = defaultOps;
    /** Whether --ops was given (else ops is defaultOps). */
    bool opsGiven = false;
    /** Event tracing / flight recorder (off unless requested). */
    trace::Config trace;

    /** Parse argv, exiting on --help or a usage error; @p extra
     *  declares the binary's own flags. */
    static BenchOptions
    parse(int argc, char **argv,
          const std::function<void(cli::Parser &)> &extra = {})
    {
        BenchOptions opt;
        cli::Parser cli(argv[0]);
        if (extra)
            extra(cli);
        cli.callback("--ops", "N",
                     [&opt](const std::string &v) {
                         opt.opsGiven = true;
                         return cli::readCount(
                             "--ops", v, cli::Zero::Refused,
                             std::numeric_limits<std::uint64_t>::max(),
                             opt.ops);
                     },
                     "FASEs per thread (default " +
                         std::to_string(defaultOps) + ")");
        opt.declare(cli);
        cli.callback("--trace", "FLAGS",
                     [&opt](const std::string &list) {
                         return trace::parseFlags(list, opt.trace.flags)
                                    ? std::string()
                                    : "unknown trace flag in '" + list +
                                          "'";
                     },
                     "comma list of PersistPath,PmController,"
                     "SpecBuffer,\nCore,FaseRuntime,FaultInject, or "
                     "'all'");
        cli.string("--trace-out", opt.trace.outPath, "PATH",
                   "export the trace (.json: Chrome trace-event "
                   "JSON;\nelse compact binary); implies --trace all");
        cli.count("--trace-ring", opt.trace.ringEntries,
                  cli::Zero::Refused,
                  "per-core ring capacity in events; the offline\n"
                  "checker needs a lossless (drop-free) trace");
        cli.flag("--flight-recorder", opt.trace.flightRecorder,
                 "always-on bounded recorder, dumped on faults");
        cli.parseOrExit(argc, argv);
        // An export destination with no selected components means
        // "trace everything".
        if (!opt.trace.outPath.empty() && opt.trace.flags == 0)
            opt.trace.flags = trace::FlagAll;
        return opt;
    }
};

inline workloads::WorkloadParams
params(unsigned threads, std::uint64_t ops)
{
    workloads::WorkloadParams p;
    p.numThreads = threads;
    p.opsPerThread = ops;
    p.seed = 1;
    return p;
}

/** Standard run metadata + the JSON file write (if requested). */
inline void
finishJson(core::ResultSink &sink, const BenchOptions &opt)
{
    // Job count and wall clock are host facts, not results; leaving
    // them out keeps --jobs 1 and --jobs N byte-identical.
    sink.setMeta("ops_per_thread", Json(opt.ops));
    Json designs = Json::array();
    for (auto d : opt.designs)
        designs.push(Json(persistency::designName(d)));
    sink.setMeta("designs", std::move(designs));
    if (opt.trace.enabled()) {
        Json t = Json::object();
        t.set("flags", Json(trace::flagsToString(opt.trace.flags)));
        t.set("flight_recorder", Json(opt.trace.flightRecorder));
        if (!opt.trace.outPath.empty())
            t.set("out", Json(opt.trace.outPath));
        sink.setMeta("trace", std::move(t));
    }
    if (opt.metrics.enabled()) {
        Json m = Json::object();
        m.set("interval_us",
              Json(opt.metrics.interval / ticksPerNs / 1000));
        sink.setMeta("metrics", std::move(m));
    }
    sink.writeFile(opt.jsonPath);
}

} // namespace pmemspec::bench

#endif // PMEMSPEC_BENCH_BENCH_UTIL_HH
