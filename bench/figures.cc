/**
 * @file
 * The paper's evaluation (Section 8) and our ablations as one sweep
 * table. Each entry is a figure id, its default --ops, the sweep
 * points it runs and the report that prints its table, fills its
 * JSON rows and returns its exit status. An entry whose rows do not
 * come from timing runs has no points; its report computes them
 * itself through runner.forEach.
 *
 *   figures [--figure ID|all] [--ops N] [--jobs N] [--json PATH] ...
 *
 * With `all` (the default), the --json and --trace-out paths get
 * ".<id>" inserted before their extension, so each figure writes its
 * own envelope. BENCH_figures.txt and BENCH_figures.sha256 pin every
 * value bit for bit (see EXPERIMENTS.md).
 */

#include <algorithm>
#include <array>
#include <cstdarg>
#include <iostream>
#include <map>

#include "bench_util.hh"
#include "cpu/machine.hh"
#include "observe/trace_export.hh"
#include "persistency/lowering.hh"
#include "pmds/pm_array.hh"
#include "runtime/fase_runtime.hh"
#include "runtime/virtual_os.hh"

namespace
{

using namespace pmemspec;
using namespace pmemspec::bench;
using persistency::Design;

using Results = std::vector<core::SweepResult>;

/** One figure of the sweep table. */
struct Figure
{
    /** --figure value and the envelope's "figure" field. */
    const char *id;
    std::uint64_t defaultOps;
    /** The sweep points at @p opt. */
    std::vector<core::SweepPoint> (*points)(const BenchOptions &opt);
    /** Print the table, fill @p sink and return the exit status. */
    int (*report)(const BenchOptions &opt,
                  const core::SweepRunner &runner,
                  const Results &results, core::ResultSink &sink);
};

/** The Table 3 machine at @p cores, traced and sampled as @p opt
 *  asks. */
cpu::MachineConfig
machine(const BenchOptions &opt, unsigned cores = 8)
{
    auto m = core::defaultMachineConfig(cores);
    m.trace = opt.trace;
    m.metrics = opt.metrics;
    return m;
}

/** One Table 4 benchmark under @p d on the 8-core machine. */
core::SweepPoint
point(const BenchOptions &opt, std::string id, workloads::BenchId b,
      Design d)
{
    core::SweepPoint p;
    p.id = std::move(id);
    p.cfg.withBench(b).withDesign(d).withMachine(machine(opt));
    p.cfg.workload = params(8, opt.ops);
    return p;
}

/** Every Table 4 benchmark under PMEM-Spec, id = benchmark. */
std::vector<core::SweepPoint>
pmemSpecPoints(const BenchOptions &opt)
{
    std::vector<core::SweepPoint> points;
    for (auto b : workloads::allBenchmarks())
        points.push_back(
            point(opt, workloads::benchName(b), b, Design::PmemSpec));
    return points;
}

/** Fold per-design geomeans over the rows into one synthetic row. */
core::NormalizedRow
geomeanRow(const std::vector<core::NormalizedRow> &rows)
{
    core::NormalizedRow gm;
    gm.baseline = rows.front().baseline;
    gm.designs = rows.front().designs;
    for (auto d : gm.designs) {
        std::vector<double> norm_vals, raw_vals;
        for (const auto &r : rows) {
            norm_vals.push_back(r.normalized.at(d));
            raw_vals.push_back(r.throughput.at(d));
        }
        gm.normalized[d] = geomean(norm_vals);
        gm.throughput[d] = geomean(raw_vals);
    }
    return gm;
}

/** Print a normalized table (one column per design, then GEOMEAN),
 *  append it, GEOMEAN included, to @p table of the sink and return
 *  the GEOMEAN row. */
core::NormalizedRow
reportNormalized(const std::string &title,
                 const std::vector<Design> &designs,
                 const std::vector<core::NormalizedRow> &rows,
                 core::ResultSink &sink, const std::string &table)
{
    std::printf("# %s\n%-12s", title.c_str(), "benchmark");
    for (auto d : designs)
        std::printf(" %10s", persistency::designName(d).c_str());
    std::printf("\n");
    auto emit = [&](const std::string &name,
                    const core::NormalizedRow &row) {
        std::printf("%-12s", name.c_str());
        for (auto d : row.designs)
            std::printf(" %10.3f", row.normalized.at(d));
        std::printf("\n");
        sink.addRow(table, core::ResultSink::rowJson(name, row));
    };
    for (const auto &r : rows)
        emit(workloads::benchName(r.bench), r);
    core::NormalizedRow gm = geomeanRow(rows);
    emit("GEOMEAN", gm);
    return gm;
}

/** printf into a std::string. */
std::string
format(const char *fmt, ...)
{
    char buf[256];
    va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(buf, sizeof(buf), fmt, ap);
    va_end(ap);
    return buf;
}

/**
 * The paper claims one figure report checks, on the rows it printed.
 * A failed claim prints a FAIL line and makes the report exit 1 at
 * the figure's default --ops, the run length BENCH_figures.txt pins.
 * At any other --ops it prints as a DEVIATION line and does not fail:
 * the figure shapes drift with run length (EXPERIMENTS.md), and at
 * --ops 25 DPO's TATP point already sits above the baseline.
 */
class Claims
{
  public:
    Claims(const BenchOptions &opt, std::uint64_t default_ops)
        : gated(opt.ops == default_ops), ops(opt.ops)
    {
    }

    /** Check one claim, stated in @p what. */
    void
    check(bool holds, const std::string &what)
    {
        if (holds)
            return;
        ++failed;
        if (gated)
            std::printf("FAIL: %s\n", what.c_str());
        else
            std::printf("DEVIATION: %s (not gated at --ops %llu)\n",
                        what.c_str(),
                        static_cast<unsigned long long>(ops));
    }

    /** A known deviation from the paper: printed, never fatal. */
    static void
    deviation(const std::string &what)
    {
        std::printf("DEVIATION: %s\n", what.c_str());
    }

    int status() const { return gated && failed != 0 ? 1 : 0; }

  private:
    bool gated;
    std::uint64_t ops;
    unsigned failed = 0;
};

/** Whether @p designs holds every design (the Fig 9/10 claims
 *  compare all four). */
bool
allDesignsIn(const std::vector<Design> &designs)
{
    const auto all = persistency::allDesigns();
    return std::all_of(all.begin(), all.end(), [&](Design d) {
        return std::find(designs.begin(), designs.end(), d) !=
               designs.end();
    });
}

/** Mean over every snapshot stat whose qualified name ends with
 *  @p suffix (e.g. ".occupancyDist.p99" across all persist-path
 *  lanes); 0 when no stat matches. */
double
meanStatSuffix(const core::ExperimentResult &res,
               const std::string &suffix)
{
    double sum = 0;
    unsigned n = 0;
    for (const auto &sv : res.stats) {
        if (sv.name.size() >= suffix.size() &&
            sv.name.compare(sv.name.size() - suffix.size(),
                            suffix.size(), suffix) == 0) {
            sum += sv.value;
            ++n;
        }
    }
    return n ? sum / n : 0;
}

const std::vector<std::string> quantiles = {"p50", "p90", "p99"};

/** The points of an entry whose rows do not come from timing runs. */
std::vector<core::SweepPoint>
noPoints(const BenchOptions &)
{
    return {};
}

// ---- Table 3: the simulator configuration, printed from the live
// default MachineConfig so the table can never drift from the code.

int
table3Report(const BenchOptions &, const core::SweepRunner &,
             const Results &, core::ResultSink &sink)
{
    const auto cfg = core::defaultMachineConfig(8);
    std::cout << "# Table 3: simulator configuration\n";
    core::printConfig(std::cout, cfg);
    std::cout << "\nSpeculation buffer entry: Address (8B) + state "
                 "(2b) + Spec-ID (32b) + Inserted (30b) = 16B; "
                 "4 entries = 64B of storage (Section 8.1).\n";

    const auto &m = cfg.mem;
    Json row = Json::object();
    row.set("cores", Json(m.numCores));
    row.set("freq_ghz", Json(cfg.core.freqGhz));
    row.set("sq_entries", Json(cfg.core.sqEntries));
    row.set("l1_bytes", Json(static_cast<std::uint64_t>(m.l1Bytes)));
    row.set("l1_ways", Json(m.l1Ways));
    row.set("llc_bytes", Json(static_cast<std::uint64_t>(m.llcBytes)));
    row.set("llc_ways", Json(m.llcWays));
    row.set("pm_read_latency_ns",
            Json(m.pmReadLatency / ticksPerNs));
    row.set("pm_write_latency_ns",
            Json(m.pmWriteLatency / ticksPerNs));
    row.set("pm_banks", Json(m.pmBanks));
    row.set("pmc_read_queue", Json(m.pmcReadQueue));
    row.set("pmc_write_queue", Json(m.pmcWriteQueue));
    row.set("spec_buffer_entries", Json(m.specBufferEntries));
    row.set("persist_path_latency_ns",
            Json(m.persistPathLatency / ticksPerNs));
    row.set("speculation_window_ns",
            Json(m.effectiveSpecWindow() / ticksPerNs));
    sink.addRow("config", std::move(row));
    return 0;
}

// ---- Figure 9: throughput of the four designs on the eight Table 4
// benchmarks in the 8-core system, normalised to IntelX86. Paper:
// PMEM-Spec > HOPS > IntelX86 > DPO on average; Queue/Hashmap gain
// least; DPO sits below the baseline everywhere.

std::vector<core::SweepPoint>
fig09Points(const BenchOptions &opt)
{
    return core::normalizedPoints(workloads::allBenchmarks(),
                                  machine(opt), params(8, opt.ops),
                                  opt.designs);
}

int
fig09Report(const BenchOptions &opt, const core::SweepRunner &,
            const Results &results, core::ResultSink &sink)
{
    const auto rows = core::foldNormalized(workloads::allBenchmarks(),
                                           opt.designs, results);
    const auto gm =
        reportNormalized("Figure 9: normalised throughput, 8 cores",
                         opt.designs, rows, sink, "normalized");
    if (!allDesignsIn(opt.designs))
        return 0;
    Claims claims(opt, defaultOps);
    const auto &g = gm.normalized;
    claims.check(g.at(Design::PmemSpec) > g.at(Design::HOPS) &&
                     g.at(Design::HOPS) > g.at(Design::IntelX86) &&
                     g.at(Design::IntelX86) > g.at(Design::DPO),
                 "Fig 9: geomean order is not "
                 "PMEM-Spec > HOPS > IntelX86 > DPO");
    for (const auto &r : rows) {
        const char *name = workloads::benchName(r.bench);
        claims.check(r.normalized.at(Design::DPO) < 1.0,
                     format("Fig 9: DPO is not below 1.0 on %s", name));
        if (r.bench == workloads::BenchId::Tatp ||
            r.bench == workloads::BenchId::Tpcc ||
            r.bench == workloads::BenchId::Vacation ||
            r.bench == workloads::BenchId::Memcached)
            claims.check(r.normalized.at(Design::PmemSpec) > 1.0,
                         format("Fig 9: PMEM-Spec is not above 1.0 "
                                "on %s",
                                name));
    }
    return claims.status();
}

// ---- Figure 10: sensitivity to the number of cores, normalised per
// benchmark to IntelX86 at the same core count. Paper: PMEM-Spec
// keeps beating the baseline and HOPS (by 18.8%/8.2%, 18.2%/8.0% and
// 17.1%/10%); DPO stays below the baseline and degrades with cores.
// --ops is the total per core count, so the work stays constant.

const std::vector<unsigned> fig10Cores = {16, 32, 64};
/** Fig 10's default --ops: the total per core count. */
constexpr std::uint64_t fig10Ops = 3200;
/** The paper's PMEM-Spec lead over HOPS at each of fig10Cores. */
const std::vector<double> fig10PaperLead = {0.082, 0.080, 0.10};

std::uint64_t
fig10OpsPerThread(const BenchOptions &opt, unsigned cores)
{
    return std::max<std::uint64_t>(25, opt.ops / cores);
}

std::vector<core::SweepPoint>
fig10Points(const BenchOptions &opt)
{
    std::vector<core::SweepPoint> points;
    for (unsigned cores : fig10Cores) {
        auto m = machine(opt, cores);
        // Table 3 describes the 8-core machine; larger systems scale
        // the shared uncore (PM banks/channels and PMC queues)
        // proportionally, as the paper's flat-at-64-cores results
        // imply. The caches stay at the Table 3 sizes.
        const unsigned scale = cores / 8;
        m.mem.pmBanks *= scale;
        m.mem.pmcWriteQueue *= scale;
        m.mem.pmcReadQueue *= scale;
        auto block = core::normalizedPoints(
            workloads::allBenchmarks(), m,
            params(cores, fig10OpsPerThread(opt, cores)), opt.designs,
            "c" + std::to_string(cores).append("/"));
        points.insert(points.end(), block.begin(), block.end());
    }
    return points;
}

int
fig10Report(const BenchOptions &opt, const core::SweepRunner &,
            const Results &results, core::ResultSink &sink)
{
    const std::size_t block = results.size() / fig10Cores.size();
    std::vector<core::NormalizedRow> gms;
    for (std::size_t i = 0; i < fig10Cores.size(); ++i) {
        const unsigned cores = fig10Cores[i];
        char title[96];
        std::snprintf(title, sizeof(title),
                      "Figure 10: normalised throughput, %u cores "
                      "(%llu FASEs/thread)",
                      cores,
                      static_cast<unsigned long long>(
                          fig10OpsPerThread(opt, cores)));
        gms.push_back(reportNormalized(
            title, opt.designs,
            core::foldNormalized(workloads::allBenchmarks(),
                                 opt.designs, results, i * block),
            sink, "cores_" + std::to_string(cores)));
        std::printf("\n");
    }
    if (!allDesignsIn(opt.designs))
        return 0;
    // Per benchmark HOPS may lead (ArraySwaps at 16 cores), so the
    // claims are on the geomeans.
    Claims claims(opt, fig10Ops);
    std::string lead, paper;
    for (std::size_t i = 0; i < fig10Cores.size(); ++i) {
        const auto &g = gms[i].normalized;
        const double pmem = g.at(Design::PmemSpec);
        claims.check(pmem > 1.0 && pmem > g.at(Design::HOPS),
                     format("Fig 10: PMEM-Spec's geomean is not above "
                            "1.0 and HOPS at %u cores",
                            fig10Cores[i]));
        if (i > 0)
            claims.check(g.at(Design::DPO) <
                             gms[i - 1].normalized.at(Design::DPO),
                         format("Fig 10: DPO's geomean does not fall "
                                "from %u to %u cores",
                                fig10Cores[i - 1], fig10Cores[i]));
        const char *sep = i > 0 ? "/" : "";
        lead += format("%s%+.1f%%", sep,
                       100.0 * (pmem / g.at(Design::HOPS) - 1.0));
        paper += format("%s+%.1f%%", sep, 100.0 * fig10PaperLead[i]);
    }
    Claims::deviation("Fig 10: PMEM-Spec's geomean leads HOPS by " +
                      lead + " at 16/32/64 cores (paper: " + paper +
                      ")");
    return claims.status();
}

// ---- Figure 11: sensitivity to the speculation buffer size in the
// 8-core system, PMEM-Spec only, as the geomean across the Table 4
// benchmarks normalised to the 16-entry (overflow-free) buffer.
// Paper: the 1-entry buffer loses ~12.8% to overflow pauses.

const std::vector<unsigned> fig11Sizes = {1, 2, 4, 8, 16};

std::vector<core::SweepPoint>
fig11Points(const BenchOptions &opt)
{
    std::vector<core::SweepPoint> points;
    for (unsigned size : fig11Sizes) {
        for (auto b : workloads::allBenchmarks()) {
            auto p = point(opt,
                           "sb" + std::to_string(size) + "/" +
                               workloads::benchName(b),
                           b, Design::PmemSpec);
            p.cfg.machine.mem.specBufferEntries = size;
            // The sweep needs LLC eviction pressure (the buffer only
            // monitors evicted blocks); our scaled-down footprints
            // are cache-resident, so shrink the LLC proportionally
            // to recreate the paper's eviction rate.
            p.cfg.machine.mem.llcBytes = 1 << 21; // 2 MB
            points.push_back(std::move(p));
        }
    }
    return points;
}

int
fig11Report(const BenchOptions &opt, const core::SweepRunner &,
            const Results &results, core::ResultSink &sink)
{
    const std::size_t n = workloads::allBenchmarks().size();
    // Geomean throughput of buffer size s; the reference is the
    // 16-entry size, the last one.
    auto size_geomean = [&](std::size_t s) {
        std::vector<double> tputs;
        for (std::size_t b = 0; b < n; ++b)
            tputs.push_back(results[s * n + b].result.throughput);
        return geomean(tputs);
    };
    const double ref = size_geomean(fig11Sizes.size() - 1);

    std::printf("# Figure 11: speculation buffer size sweep "
                "(8 cores, PMEM-Spec)\n");
    std::printf("%-8s %14s %14s %12s %12s\n", "entries",
                "geomean-tput", "vs-16-entry", "full-pauses",
                "resid-p99");
    Claims claims(opt, defaultOps);
    double prev_gm = 0;
    std::uint64_t pauses = 0;
    for (std::size_t s = 0; s < fig11Sizes.size(); ++s) {
        const double gm = size_geomean(s);
        pauses = 0;
        // Mean speculation-window residency quantiles (ns) across the
        // benchmarks, from the buffer's windowResidency histogram.
        std::map<std::string, double> resid;
        for (std::size_t b = 0; b < n; ++b) {
            const auto &r = results[s * n + b].result;
            pauses += r.run.specBufFullPauses;
            for (const auto &q : quantiles)
                resid[q] += r.statOr(
                    "machine.memsys.pmc.specbuf.windowResidency." + q);
        }
        for (const auto &q : quantiles)
            resid[q] /= static_cast<double>(n);
        std::printf("%-8u %14.3e %14.3f %12llu %12.1f\n",
                    fig11Sizes[s], gm, gm / ref,
                    static_cast<unsigned long long>(pauses),
                    resid["p99"]);
        if (s > 0)
            claims.check(gm >= prev_gm,
                         format("Fig 11: geomean throughput falls from "
                                "%u to %u entries",
                                fig11Sizes[s - 1], fig11Sizes[s]));
        prev_gm = gm;
        Json row = Json::object();
        row.set("entries", Json(fig11Sizes[s]));
        row.set("geomean_throughput", Json(gm));
        row.set("vs_16_entry", Json(gm / ref));
        row.set("full_pauses", Json(pauses));
        for (const auto &q : quantiles)
            row.set("residency_ns_" + q, Json(resid[q]));
        sink.addRow("specbuf", std::move(row));
    }
    claims.check(pauses == 0,
                 format("Fig 11: the %u-entry buffer pauses %llu "
                        "times when full",
                        fig11Sizes.back(),
                        static_cast<unsigned long long>(pauses)));
    return claims.status();
}

// ---- Figure 12: sensitivity to the persist-path latency for HOPS
// and PMEM-Spec, as the geomean over the Table 4 benchmarks
// normalised to the IntelX86 baseline (whose regular path the sweep
// does not touch). Paper: both designs stay above the baseline even
// at 100ns, because the durability barriers are infrequent.

const std::vector<unsigned> fig12Lats = {20, 40, 60, 80, 100};
const std::vector<Design> fig12Designs = {Design::HOPS,
                                          Design::PmemSpec};

std::vector<core::SweepPoint>
fig12Points(const BenchOptions &opt)
{
    // The per-benchmark IntelX86 baselines (neither traced nor
    // sampled) followed by every (latency, design, benchmark) point.
    std::vector<core::SweepPoint> points;
    for (auto b : workloads::allBenchmarks()) {
        auto p = point(opt, std::string("base/") +
                                workloads::benchName(b),
                       b, Design::IntelX86);
        p.cfg.machine.trace = {};
        p.cfg.machine.metrics = {};
        points.push_back(std::move(p));
    }
    for (unsigned lat : fig12Lats) {
        for (Design d : fig12Designs) {
            for (auto b : workloads::allBenchmarks()) {
                auto p = point(opt,
                               "lat" + std::to_string(lat) + "/" +
                                   persistency::designName(d) + "/" +
                                   workloads::benchName(b),
                               b, d);
                p.cfg.machine.mem.persistPathLatency = nsToTicks(lat);
                // The ring-bus window scales with the idle latency.
                p.cfg.machine.mem.speculationWindow = 0;
                points.push_back(std::move(p));
            }
        }
    }
    return points;
}

int
fig12Report(const BenchOptions &opt, const core::SweepRunner &,
            const Results &results, core::ResultSink &sink)
{
    // The first n results are the per-benchmark baselines.
    const std::size_t n = workloads::allBenchmarks().size();
    std::size_t idx = n;

    std::printf("# Figure 12: persist-path latency sweep (8 cores), "
                "geomean normalised to IntelX86\n");
    std::printf("%-14s %10s %10s\n", "latency(ns)", "HOPS",
                "PMEM-Spec");
    Claims claims(opt, defaultOps);
    double prev_margin = 0;
    unsigned hops_below = 0; ///< first latency HOPS loses, or 0
    for (unsigned lat : fig12Lats) {
        std::map<Design, double> gm;
        // Mean persist-path FIFO occupancy quantiles across the
        // PMEM-Spec points' per-lane occupancyDist histograms.
        std::map<std::string, double> occ;
        for (Design d : fig12Designs) {
            std::vector<double> norms;
            for (std::size_t b = 0; b < n; ++b) {
                const auto &r = results[idx++].result;
                norms.push_back(r.throughput /
                                results[b].result.throughput);
                if (d == Design::PmemSpec) {
                    for (const auto &q : quantiles)
                        occ[q] +=
                            meanStatSuffix(r, ".occupancyDist." + q);
                }
            }
            gm[d] = geomean(norms);
        }
        for (const auto &q : quantiles)
            occ[q] /= static_cast<double>(n);
        std::printf("%-14u %10.3f %10.3f\n", lat, gm[Design::HOPS],
                    gm[Design::PmemSpec]);
        claims.check(gm[Design::PmemSpec] > 1.0,
                     format("Fig 12: PMEM-Spec is not above 1.0 at "
                            "%u ns",
                            lat));
        const double margin = gm[Design::PmemSpec] - gm[Design::HOPS];
        if (lat != fig12Lats.front())
            claims.check(margin > prev_margin,
                         format("Fig 12: PMEM-Spec's margin over HOPS "
                                "does not grow at %u ns",
                                lat));
        prev_margin = margin;
        if (hops_below == 0 && gm[Design::HOPS] < 1.0)
            hops_below = lat;
        Json row = Json::object();
        row.set("latency_ns", Json(lat));
        row.set("HOPS", Json(gm[Design::HOPS]));
        row.set("PMEM-Spec", Json(gm[Design::PmemSpec]));
        for (const auto &q : quantiles)
            row.set("pmemspec_path_occupancy_" + q, Json(occ[q]));
        sink.addRow("pathlat", std::move(row));
    }
    if (hops_below != 0)
        Claims::deviation(format("Fig 12: HOPS falls below IntelX86 "
                                 "from %u ns (paper: above it up to "
                                 "100 ns)",
                                 hops_below));
    return claims.status();
}

// ---- Section 8.4: the load and store misspeculations of every
// Table 4 benchmark under PMEM-Spec (the paper observed zero), then
// the synthetic stale-read kernel at rising persist-path latencies,
// which misspeculates only at unrealistically slow paths. Exits 1 on
// any *natural* misspeculation, so CI can gate the zero-rate claim;
// the synthetic kernel provokes them on purpose and is not gated.

/** The Section 8.4 synthetic stale-read kernel (see the
 *  test_misspec_synthetic notes for the construction). */
cpu::Trace
staleReadKernel()
{
    using cpu::TraceOp;
    cpu::Trace t;
    const Addr set_stride = 64 * blockBytes; // LLC set span
    const Addr victim = 50 * set_stride;
    t.push_back({TraceOp::Store, victim});
    for (unsigned i = 1; i <= 5; ++i)
        t.push_back({TraceOp::Store, i * set_stride});
    t.push_back({TraceOp::Compute, 3000});
    t.push_back({TraceOp::LoadDep, victim});
    return t;
}

int
misspecReport(const BenchOptions &opt, const core::SweepRunner &runner,
              const Results &results, core::ResultSink &sink)
{
    std::printf("# Section 8.4: misspeculation rates under "
                "PMEM-Spec (8 cores)\n");
    std::printf("%-12s %14s %12s %12s %12s\n", "benchmark",
                "persists", "load-miss", "store-miss", "buf-pauses");
    unsigned long long natural_misspecs = 0;
    for (const auto &r : results) {
        const auto &run = r.result.run;
        std::printf(
            "%-12s %14llu %12llu %12llu %12llu\n", r.id.c_str(),
            static_cast<unsigned long long>(r.result.statOr(
                "machine.memsys.pmc.persistsAccepted")),
            static_cast<unsigned long long>(run.loadMisspecs),
            static_cast<unsigned long long>(run.storeMisspecs),
            static_cast<unsigned long long>(run.specBufFullPauses));
        natural_misspecs += run.loadMisspecs + run.storeMisspecs;
    }

    // The synthetic kernel bypasses ExperimentConfig (hand-built
    // trace), so it runs through the generic parallel-for instead.
    const std::vector<unsigned> lats = {10, 20, 100, 500, 2000};
    std::vector<std::uint64_t> kernel_misspecs(lats.size());
    runner.forEach(lats.size(), [&](std::size_t i) {
        cpu::MachineConfig cfg;
        cfg.design = Design::PmemSpec;
        cfg.mem.numCores = 1;
        cfg.mem.l1Bytes = 1024;
        cfg.mem.l1Ways = 1;
        cfg.mem.llcBytes = 4096;
        cfg.mem.llcWays = 1;
        cfg.mem.persistPathLatency = nsToTicks(lats[i]);
        cfg.mem.speculationWindow = 4 * nsToTicks(lats[i]);
        cfg.trace = opt.trace;
        cfg.trace.label = "synthetic-lat" + std::to_string(lats[i]);
        cfg.metrics = opt.metrics;
        cpu::Machine m(cfg);
        std::vector<cpu::Trace> traces{staleReadKernel()};
        m.setTraces(std::move(traces));
        kernel_misspecs[i] = m.run().loadMisspecs;
        // This path bypasses runExperiment, so export manually: the
        // synthetic kernel is the one workload here that provokes
        // misspeculation, i.e. the most interesting checker input.
        if (m.traceManager() &&
            !m.traceManager()->config().outPath.empty())
            observe::exportTraceFile(*m.traceManager());
    });

    std::printf("\n# Synthetic stale-read kernel vs persist-path "
                "latency (tiny direct-mapped caches)\n");
    std::printf("%-14s %12s\n", "latency(ns)", "load-miss");
    for (std::size_t i = 0; i < lats.size(); ++i) {
        std::printf("%-14u %12llu%s\n", lats[i],
                    static_cast<unsigned long long>(
                        kernel_misspecs[i]),
                    lats[i] <= 20 ? "   (faster than the read path: "
                                    "never misspeculates)"
                                  : "");
        Json row = Json::object();
        row.set("latency_ns", Json(lats[i]));
        row.set("load_misspecs", Json(kernel_misspecs[i]));
        sink.addRow("synthetic", std::move(row));
    }

    sink.setMeta("natural_misspecs",
                 Json(static_cast<std::uint64_t>(natural_misspecs)));
    if (natural_misspecs != 0) {
        std::printf("\nFAIL: %llu natural misspeculation(s) in the "
                    "Table 4 benchmarks (paper reports zero)\n",
                    natural_misspecs);
        return 1;
    }
    std::printf("\nOK: zero natural misspeculations across all "
                "Table 4 benchmarks\n");
    return 0;
}

// ---- Ablation (Sections 5.1.3 vs 5.1.4): fetch-based vs
// eviction-based load-misspeculation detection. The naive scheme
// monitors recently *fetched* blocks, so every write-allocate fetch
// followed by the block's own persist looks like a stale read; the
// shipped scheme monitors only *evicted* blocks.

int
detectionReport(const BenchOptions &, const core::SweepRunner &,
                const Results &results, core::ResultSink &sink)
{
    std::printf("# Ablation: load-misspec detection scheme "
                "(8 cores, PMEM-Spec)\n");
    std::printf("%-12s %22s %22s\n", "benchmark",
                "fetch-based-false-pos", "eviction-based-misspecs");
    for (const auto &r : results) {
        // Every store that write-allocated its block would have been
        // flagged by the fetch-based scheme (Figure 4): the store's
        // own persist overwrites the just-fetched block within the
        // window by construction.
        const auto false_pos = static_cast<std::uint64_t>(
            r.result.statOr("machine.memsys.storeAllocFetches"));
        const auto misspecs =
            r.result.run.loadMisspecs + r.result.run.storeMisspecs;
        std::printf("%-12s %22llu %22llu\n", r.id.c_str(),
                    static_cast<unsigned long long>(false_pos),
                    static_cast<unsigned long long>(misspecs));
        Json row = Json::object();
        row.set("benchmark", Json(r.id));
        row.set("fetch_based_false_positives", Json(false_pos));
        row.set("eviction_based_misspecs", Json(misspecs));
        sink.addRow("detection", std::move(row));
    }
    std::printf("\nEvery fetch-based false positive would abort the "
                "running FASEs; the eviction-based scheme removes "
                "them entirely (Section 5.1.4).\n");
    return 0;
}

// ---- Figure 2's programming models, counted: the ordering
// instructions each design executes per FASE in thread 0's lowered
// trace. These are instruction counts; the stalls they cause are the
// cpu.*Stalls stats of each timing point. Exits 1 unless PMEM-Spec
// executes exactly one ordering instruction per FASE, a spec-barrier
// (the strict-persistency promise of Section 4.1).

int
barriersReport(const BenchOptions &opt, const core::SweepRunner &runner,
               const Results &, core::ResultSink &sink)
{
    const auto benches = workloads::allBenchmarks();
    const auto designs = persistency::allDesigns();

    // Trace generation dominates, so the census parallelises per
    // benchmark.
    std::vector<std::vector<persistency::InstrMix>> mixes(
        benches.size());
    runner.forEach(benches.size(), [&](std::size_t i) {
        auto logical =
            workloads::generateTraces(benches[i], params(8, opt.ops));
        for (Design d : designs)
            mixes[i].push_back(persistency::instrMix(
                persistency::lower(logical[0], d)));
    });

    std::printf("# Ablation: ordering instructions per FASE "
                "(thread 0's trace)\n");
    std::printf("%-12s %-10s %8s %8s %8s %8s %8s %8s\n", "benchmark",
                "design", "clwb", "sfence", "ofence", "dfence",
                "spec-bar", "drain");
    const double per_fase = static_cast<double>(opt.ops);
    unsigned broken = 0;
    for (std::size_t i = 0; i < benches.size(); ++i) {
        for (std::size_t j = 0; j < designs.size(); ++j) {
            const auto &mix = mixes[i][j];
            std::printf(
                "%-12s %-10s %8.2f %8.2f %8.2f %8.2f %8.2f %8.2f\n",
                workloads::benchName(benches[i]),
                persistency::designName(designs[j]).c_str(),
                mix.clwbs / per_fase, mix.sfences / per_fase,
                mix.ofences / per_fase, mix.dfences / per_fase,
                mix.specBarriers / per_fase,
                mix.drainBuffers / per_fase);
            Json row = Json::object();
            row.set("benchmark",
                    Json(workloads::benchName(benches[i])));
            row.set("design",
                    Json(persistency::designName(designs[j])));
            row.set("clwb_per_fase", Json(mix.clwbs / per_fase));
            row.set("sfence_per_fase", Json(mix.sfences / per_fase));
            row.set("ofence_per_fase", Json(mix.ofences / per_fase));
            row.set("dfence_per_fase", Json(mix.dfences / per_fase));
            row.set("spec_barrier_per_fase",
                    Json(mix.specBarriers / per_fase));
            row.set("drain_per_fase",
                    Json(mix.drainBuffers / per_fase));
            sink.addRow("census", std::move(row));
            if (designs[j] == Design::PmemSpec &&
                (mix.specBarriers != opt.ops || mix.clwbs != 0 ||
                 mix.sfences != 0 || mix.ofences != 0 ||
                 mix.dfences != 0 || mix.drainBuffers != 0))
                ++broken;
        }
    }
    if (broken != 0) {
        std::printf("\nFAIL: %u benchmark(s) where PMEM-Spec executes "
                    "other than one spec-barrier per FASE\n",
                    broken);
        return 1;
    }
    std::printf("\nPMEM-Spec executes exactly one ordering "
                "instruction per FASE (spec-barrier), the strict-"
                "persistency promise of Section 4.1.\n");
    return 0;
}

// ---- Section 6.2: lazy vs eager misspeculation recovery in the
// failure-atomic runtime. Lazy recovery finishes the doomed FASE
// before aborting; eager recovery aborts at the next runtime entry
// point. FASEs of growing length take a misspeculation after their
// first transactional access, and the table counts the accesses each
// policy executes. The FASE lengths are fixed, so --ops is ignored.
// Exits 1 unless eager executes fewer accesses at every length.

int
recoveryReport(const BenchOptions &, const core::SweepRunner &runner,
               const Results &, core::ResultSink &sink)
{
    using namespace runtime;
    const std::vector<unsigned> lens = {4, 16, 64, 256, 1024};

    std::vector<std::array<std::size_t, 2>> executed(lens.size());
    runner.forEach(lens.size(), [&](std::size_t li) {
        const unsigned len = lens[li];
        int idx = 0;
        for (RecoveryPolicy policy :
             {RecoveryPolicy::Lazy, RecoveryPolicy::Eager}) {
            PersistentMemory pm(1 << 24);
            VirtualOs os;
            FaseRuntime rt(pm, os, 1, policy, 1 << 20);
            pmds::PmArray arr(pm, len, 64);
            for (unsigned i = 0; i < len; ++i)
                arr.init(i, i);
            pm.persistAll();

            std::size_t accesses = 0;
            int runs = 0;
            rt.runFase(0, [&](Transaction &tx) {
                ++runs;
                for (unsigned i = 0; i < len; ++i) {
                    tx.writeU64(arr.elemAddr(i), i + 100);
                    ++accesses;
                    if (runs == 1 && i == 0)
                        os.raiseMisspecInterrupt(arr.elemAddr(0));
                }
            });
            executed[li][idx++] = accesses;
        }
    });

    std::printf("# Ablation: lazy vs eager recovery "
                "(accesses executed per aborted FASE)\n");
    std::printf("%-14s %12s %12s %12s\n", "fase-accesses", "lazy",
                "eager", "saving");
    unsigned broken = 0;
    for (std::size_t li = 0; li < lens.size(); ++li) {
        const double saving =
            100.0 * (1.0 - static_cast<double>(executed[li][1]) /
                               static_cast<double>(executed[li][0]));
        std::printf("%-14u %12zu %12zu %11.1f%%\n", lens[li],
                    executed[li][0], executed[li][1], saving);
        Json row = Json::object();
        row.set("fase_accesses", Json(lens[li]));
        row.set("lazy",
                Json(static_cast<std::uint64_t>(executed[li][0])));
        row.set("eager",
                Json(static_cast<std::uint64_t>(executed[li][1])));
        row.set("saving_pct", Json(saving));
        sink.addRow("recovery", std::move(row));
        if (executed[li][1] >= executed[li][0])
            ++broken;
    }
    if (broken != 0) {
        std::printf("\nFAIL: eager recovery saves nothing at %u FASE "
                    "length(s)\n",
                    broken);
        return 1;
    }
    std::printf("\nEager recovery aborts the doomed attempt at its "
                "next runtime entry point instead of running the "
                "FASE to its commit check (Section 6.2.2).\n");
    return 0;
}

// ---- Section 7: multiple PM controllers. The paper's PMEM-Spec
// "currently cannot support systems with multiple PM controllers ...
// PMEM-Spec requires an extension to an on-chip network to make it
// respect the store order." TPCC under PMEM-Spec on 8 cores with
// 1/2/4 interleaved controllers: the throughput with the ordered-NoC
// extension, and the intra-thread order inversions an unordered NoC
// admits, which the speculation buffer cannot see. Exits 1 unless
// every ordered config has zero hazards and every unordered one has
// some.

struct PmcConfig
{
    unsigned pmcs;
    bool ordered;
};

// One controller cannot reorder, so it has no unordered config.
const std::vector<PmcConfig> multipmcConfigs = {
    {1, true}, {2, true}, {2, false}, {4, true}, {4, false}};

const char *
nocName(const PmcConfig &c)
{
    return c.ordered ? "ordered" : "unordered";
}

std::vector<core::SweepPoint>
multipmcPoints(const BenchOptions &opt)
{
    std::vector<core::SweepPoint> points;
    for (const auto &c : multipmcConfigs) {
        auto p = point(opt,
                       "pmc" + std::to_string(c.pmcs) + "/" + nocName(c),
                       workloads::BenchId::Tpcc, Design::PmemSpec);
        p.cfg.machine.mem.numPmcs = c.pmcs;
        p.cfg.machine.mem.orderedNoc = c.ordered;
        points.push_back(std::move(p));
    }
    return points;
}

int
multipmcReport(const BenchOptions &, const core::SweepRunner &,
               const Results &results, core::ResultSink &sink)
{
    std::printf("# Ablation: multiple PM controllers "
                "(PMEM-Spec, TPCC, 8 cores)\n");
    std::printf("%-6s %-10s %14s %18s\n", "pmcs", "noc",
                "tput(FASEs/s)", "reorder-hazards");
    unsigned broken = 0;
    for (std::size_t i = 0; i < multipmcConfigs.size(); ++i) {
        const auto &cfg = multipmcConfigs[i];
        const auto &r = results[i].result;
        const auto hazards = r.run.crossPmcReorderHazards;
        std::printf("%-6u %-10s %14.3e %18llu%s\n", cfg.pmcs,
                    nocName(cfg), r.throughput,
                    static_cast<unsigned long long>(hazards),
                    cfg.ordered ? "" : "   (undetectable!)");
        Json row = Json::object();
        row.set("pmcs", Json(cfg.pmcs));
        row.set("noc", Json(nocName(cfg)));
        row.set("throughput", Json(r.throughput));
        row.set("reorder_hazards", Json(hazards));
        sink.addRow("multipmc", std::move(row));
        if (cfg.ordered != (hazards == 0))
            ++broken;
    }
    if (broken != 0) {
        std::printf("\nFAIL: %u config(s) where the hazards do not "
                    "follow the NoC ordering\n",
                    broken);
        return 1;
    }
    std::printf("\nWith the ordered-NoC extension the design scales "
                "to several controllers with zero ordering hazards; "
                "an unordered NoC silently breaks strict persistency "
                "(the hazards are invisible to the speculation "
                "buffer), confirming Section 7.\n");
    return 0;
}

const std::vector<Figure> figures = {
    {"table3_config", defaultOps, noPoints, table3Report},
    {"fig09_throughput", defaultOps, fig09Points, fig09Report},
    {"fig10_cores", fig10Ops, fig10Points, fig10Report},
    {"fig11_specbuf", defaultOps, fig11Points, fig11Report},
    {"fig12_pathlat", defaultOps, fig12Points, fig12Report},
    {"misspec_rates", defaultOps, pmemSpecPoints, misspecReport},
    {"ablation_detection", 100, pmemSpecPoints, detectionReport},
    {"ablation_barriers", 50, noPoints, barriersReport},
    {"ablation_recovery", defaultOps, noPoints, recoveryReport},
    {"ablation_multipmc", 200, multipmcPoints, multipmcReport},
};

/** Run one figure: its points, its report, its envelope. */
int
runFigure(const Figure &fig, const BenchOptions &opt,
          const core::SweepRunner &runner)
{
    const Results results = runner.run(fig.points(opt));
    for (const auto &r : results)
        fatal_if(!r.ok(), "sweep point %s failed: %s", r.id.c_str(),
                 r.error.c_str());
    core::ResultSink sink(fig.id);
    sink.addPoints(results);
    const int status = fig.report(opt, runner, results, sink);
    std::fflush(stdout);
    finishJson(sink, opt);
    return status;
}

} // namespace

int
main(int argc, char **argv)
{
    // Usage text: the figure ids and their --ops defaults.
    std::string ids;
    for (const auto &f : figures)
        ids += std::string(f.id) + " (--ops " +
               std::to_string(f.defaultOps) + "),\n";

    std::string only = "all";
    auto pick = [&only](const std::string &id) {
        only = id;
        const bool known =
            id == "all" ||
            std::any_of(figures.begin(), figures.end(),
                        [&id](const Figure &f) { return id == f.id; });
        return known ? std::string() : "unknown figure '" + id + "'";
    };
    const auto opt = BenchOptions::parse(
        argc, argv, [&](cli::Parser &cli) {
            cli.callback("--figure", "ID", pick,
                         ids + "or 'all' (default all)");
        });
    const bool all = only == "all";

    const core::SweepRunner runner(opt.jobs);
    int status = 0;
    for (const auto &fig : figures) {
        if (!all && only != fig.id)
            continue;
        BenchOptions run = opt;
        if (!opt.opsGiven)
            run.ops = fig.defaultOps;
        if (all) {
            if (&fig != &figures.front())
                std::printf("\n");
            for (std::string *path : {&run.jsonPath, &run.trace.outPath}) {
                if (!path->empty())
                    *path = observe::tracePathWithLabel(*path, fig.id);
            }
        }
        status = std::max(status, runFigure(fig, run, runner));
    }
    return status;
}
