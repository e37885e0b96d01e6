/**
 * @file
 * pmbench: the repository's end-to-end benchmark driver.
 *
 *   pmbench --workload NAME --seed N --seconds S --trace 0|1
 *           [--spans-out PATH]
 *
 * Workloads: fig09_matrix, crash_explore, ycsb_faults (README.md says
 * why each was chosen). The driver repeats whole batches until the
 * next one would overrun --seconds (at least three batches).
 * With --trace 0 it reports the end-to-end metrics from untraced
 * batches; with --trace 1 it alternates untraced and traced batches
 * and reports the per-layer metrics, host shares from the traced
 * spans and the tracing overhead from the difference. Every run also
 * applies the correctness gate, checks that every exact count and
 * model value repeats bit for bit across batches, and prints their
 * digest. The last stdout line is one JSON object:
 *   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
 * Exit status: 0 when correct, 1 when a check failed, 2 on a usage
 * error, 3 when the build is not an optimised Release build.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <malloc.h>
#include <set>
#include <string>
#include <sys/resource.h>

#include "bench.hh"
#include "report.hh"

namespace
{

using namespace pmbench;

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    int trace = 0;
    std::string spansOut;
};

[[noreturn]] void
usage(const char *msg)
{
    if (msg)
        std::fprintf(stderr, "pmbench: %s\n", msg);
    std::fprintf(stderr,
                 "usage: pmbench --workload fig09_matrix|crash_explore|"
                 "ycsb_faults\n"
                 "               --seed N --seconds S --trace 0|1 "
                 "[--spans-out PATH]\n");
    std::exit(2);
}

std::uint64_t
parseUint(const std::string &flag, const std::string &v)
{
    char *end = nullptr;
    const unsigned long long n = std::strtoull(v.c_str(), &end, 10);
    if (v.empty() || v[0] == '-' || !end || *end != '\0')
        usage((flag + " wants a non-negative integer").c_str());
    return n;
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() {
            if (++i >= argc)
                usage(("missing value for " + arg).c_str());
            return std::string(argv[i]);
        };
        if (arg == "--workload") {
            a.workload = value();
        } else if (arg == "--seed") {
            a.seed = parseUint(arg, value());
        } else if (arg == "--seconds") {
            a.seconds = static_cast<double>(parseUint(arg, value()));
            if (a.seconds < 1 || a.seconds > 120)
                usage("--seconds wants 1..120");
        } else if (arg == "--trace") {
            const auto t = parseUint(arg, value());
            if (t > 1)
                usage("--trace wants 0 or 1");
            a.trace = static_cast<int>(t);
        } else if (arg == "--spans-out") {
            a.spansOut = value();
        } else {
            usage(("unknown argument " + arg).c_str());
        }
    }
    if (a.workload.empty())
        usage("--workload is required");
    return a;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
tvSeconds(const timeval &tv)
{
    return static_cast<double>(tv.tv_sec) +
           1e-6 * static_cast<double>(tv.tv_usec);
}

/** Host CPU seconds of this process, all threads. */
double
processCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           1e-9 * static_cast<double>(ts.tv_nsec);
}

/** Per-layer values from the traced span totals and the exact values
 *  of one batch. */
std::map<std::string, double>
perLayerValues(const SpanTotals &st, unsigned traced,
               const std::map<std::string, double> &exact,
               double overheadFrac, double sysFrac)
{
    std::map<std::string, double> v(exact);
    const double w = st.wall();
    auto frac = [&](double s) { return w > 0 ? s / w : 0; };
    for (const char *layer :
         {"workloads.generate", "persistency.lower", "cpu.build",
          "cpu.teardown", "pmds.setup", "pmds.op_body",
          "pmds.check", "service.build"})
        v[std::string(layer) + "_frac"] = frac(st.self(layer));
    v["faultinject.explore_frac"] = frac(st.total("faultinject.explore"));
    v["faultinject.self_frac"] = frac(st.self("faultinject.explore"));
    // Driver phases: time in them outside any layer call.
    v["trace.driver_frac"] = frac(st.self("batch") + st.self("setup") +
                                  st.self("bench") + st.self("cell"));
    v["trace.overhead_frac"] = overheadFrac;
    v["host.sys_frac"] = sysFrac;

    const auto &dn = designNames();
    double events = 0;
    for (std::size_t d = 0; d < dn.size(); ++d) {
        const int di = static_cast<int>(d);
        v["cpu.run_frac." + dn[d]] = frac(st.self("cpu.run", di));
        v["service.run_frac." + dn[d]] = frac(st.self("service.run", di));
        const double hostS = st.self("persistency.lower", di) +
                             st.self("cpu.build", di) +
                             st.self("cpu.run", di) +
                             st.self("cpu.teardown", di);
        const auto f = exact.find("sim.fases." + dn[d]);
        v["fases_per_s." + dn[d]] =
            hostS > 0 && f != exact.end() ? f->second * traced / hostS : 0;
        const auto e = exact.find("sim.events." + dn[d]);
        if (e != exact.end())
            events += e->second;
    }
    const double runS = st.self("cpu.run");
    v["sim.events_per_s"] = runS > 0 ? events * traced / runS : 0;
    return v;
}

void
printMetric(const MetricDef &m, double v)
{
    // Whole numbers (the exact counts) in full, the rest in brief.
    char buf[64];
    if (v == std::floor(v) && std::fabs(v) < 1e15)
        std::snprintf(buf, sizeof buf, "%.0f", v);
    else
        std::snprintf(buf, sizeof buf, "%.6g", v);
    std::printf("%-36s %-16s %s\n", m.name.c_str(), buf, m.unit.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);

    // Keep freed heap memory in the process rather than handing it back
    // to the kernel after each batch. On a VM with free page reporting
    // (virtio-balloon), returned memory goes back to the host, and the
    // next batch faults it in again at a cost set by the host's memory
    // pressure. fig09_matrix re-faulted about 900 MB per batch that
    // way, and its run-to-run spread reached 0.24. With the memory
    // kept, every batch after the first times the program's own work.
    mallopt(M_MMAP_THRESHOLD, 32 << 20);
    mallopt(M_TRIM_THRESHOLD, 1 << 30);

    if (!releaseBuild()) {
        std::fprintf(stderr,
                     "pmbench: refusing to record numbers from a "
                     "non-Release build (%s)\n",
                     PMBENCH_BUILD_TYPE);
        return 3;
    }

    std::unique_ptr<Workload> wl;
    if (args.workload == "fig09_matrix")
        wl = makeFig09Matrix(args.seed);
    else if (args.workload == "crash_explore")
        wl = makeCrashExplore(args.seed);
    else if (args.workload == "ycsb_faults")
        wl = makeYcsbFaults(args.seed);
    else
        usage(("unknown workload " + args.workload).c_str());

    std::printf("# host %s\n", hostFingerprint(args.seed).c_str());
    std::printf("# workload %s, %g s, trace %d\n", args.workload.c_str(),
                args.seconds, args.trace);
    std::fflush(stdout);

    // Three batches at least, so medians exist; a traced run
    // alternates untraced, traced, untraced. The hard cap keeps a slow
    // host inside the benchmark's 180 s limit.
    const unsigned minBatches = 3;
    const double hardCapS = 150;

    Tracer tr;
    SpanTotals st;
    std::vector<double> untracedWall, tracedWall, setupS;
    std::vector<Span> lastSpans;
    std::vector<std::string> errors;
    Batch first;
    std::uint64_t attempted = 0, failed = 0;
    double peakRssMb = 0;
    const auto runStart = Clock::now();
    for (unsigned i = 0;; ++i) {
        const bool traced = args.trace && i % 2 == 1;
        tr.setEnabled(traced);
        Batch b;
        const double cpu0 = processCpuSeconds();
        const auto t0 = Clock::now();
        {
            Scope root(tr, "batch");
            b = wl->run(tr);
        }
        const double wall = secondsSince(t0);
        const double cpu = processCpuSeconds() - cpu0;
        std::printf("# batch %u%s wall %.4f s, cpu %.4f s, setup %.6f s\n",
                    i, traced ? " (traced)" : "", wall, cpu, b.setupS);
        std::fflush(stdout);

        if (traced) {
            const std::string bad = checkSpans(tr.spans(), wall);
            if (!bad.empty())
                errors.push_back(bad);
            st.add(tr.spans());
            lastSpans = tr.spans();
            tr.clear();
            tracedWall.push_back(wall);
        } else {
            untracedWall.push_back(wall);
            setupS.push_back(b.setupS);
        }
        attempted += b.attempted;
        failed += b.failed;
        for (const auto &e : b.errors)
            if (std::find(errors.begin(), errors.end(), e) == errors.end())
                errors.push_back(e);
        if (i == 0) {
            // Peak resident set of one batch in a fresh process. Later
            // batches reuse the kept heap, and how far it fragments
            // varies with the number of batches.
            struct rusage ru = {};
            getrusage(RUSAGE_SELF, &ru);
            peakRssMb = static_cast<double>(ru.ru_maxrss) / 1024.0;
            first = std::move(b);
        } else if (b.exact != first.exact || b.work != first.work ||
                   b.successRatio != first.successRatio) {
            for (const auto &[name, v] : b.exact) {
                const auto it = first.exact.find(name);
                if (it == first.exact.end() || it->second != v)
                    errors.push_back("nondeterministic across batches: " +
                                     name);
            }
            errors.push_back("batch " + std::to_string(i) +
                             " differs from batch 0");
        }

        const double elapsed = secondsSince(runStart);
        if (i + 1 >= minBatches &&
            (elapsed + wall > args.seconds || elapsed > hardCapS))
            break;
    }

    // Every exact value must have a catalogue entry, so none is
    // dropped from the report silently.
    std::set<std::string> known;
    for (const auto &m : perLayerMetrics())
        known.insert(m.name);
    for (const auto &[name, v] : first.exact) {
        if (!known.count(name))
            errors.push_back("exact value missing from the catalogue: " +
                             name);
        if (!std::isfinite(v))
            errors.push_back("exact value is not finite: " + name);
    }

    struct rusage ru = {};
    getrusage(RUSAGE_SELF, &ru);
    const double wallS = median(untracedWall);
    std::map<std::string, double> e2e;
    e2e["wall_s"] = wallS;
    e2e["setup_s"] = median(setupS);
    e2e["peak_rss_mb"] = peakRssMb;
    e2e["work_per_s"] =
        wallS > 0 ? static_cast<double>(first.work) / wallS : 0;
    e2e["success_ratio"] = first.successRatio;

    std::printf("# %zu untraced batch(es)", untracedWall.size());
    if (args.trace)
        std::printf(", %zu traced", tracedWall.size());
    std::printf("; %llu work units per batch\n",
                static_cast<unsigned long long>(first.work));
    for (const auto &m : endToEndMetrics())
        printMetric(m, e2e[m.name]);

    std::map<std::string, double> layer;
    if (args.trace) {
        const double overhead =
            wallS > 0 ? median(tracedWall) / wallS - 1 : 0;
        layer = perLayerValues(st, static_cast<unsigned>(tracedWall.size()),
                               first.exact, overhead,
                               tvSeconds(ru.ru_stime) /
                                   (tvSeconds(ru.ru_utime) +
                                    tvSeconds(ru.ru_stime)));
        for (const auto &m : perLayerMetrics())
            printMetric(m, layer[m.name]);
        if (!args.spansOut.empty() && !writeSpans(args.spansOut, lastSpans))
            errors.push_back("cannot write spans to " + args.spansOut);
    }
    if (!args.trace) // a traced run lists them among its metrics
        for (const auto &[name, v] : first.exact)
            if (name.rfind("model.", 0) == 0)
                std::printf("# %-34s %.6g\n", name.c_str(), v);
    std::printf("# digest %016llx over %zu exact values\n",
                static_cast<unsigned long long>(digest(first.exact)),
                first.exact.size());

    const auto &defs = args.trace ? perLayerMetrics() : endToEndMetrics();
    const auto &vals = args.trace ? layer : e2e;
    for (const auto &m : defs) {
        const auto it = vals.find(m.name);
        if (it == vals.end() || !std::isfinite(it->second))
            errors.push_back("metric has no finite value: " + m.name);
    }
    for (const auto &e : errors)
        std::fprintf(stderr, "pmbench: FAIL %s\n", e.c_str());
    const bool correct = errors.empty();

    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < defs.size(); ++i) {
        const auto it = vals.find(defs[i].name);
        const double v =
            it != vals.end() && std::isfinite(it->second) ? it->second : 0;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", defs[i].name.c_str(), v,
                    defs[i].unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
    return correct ? 0 : 1;
}
