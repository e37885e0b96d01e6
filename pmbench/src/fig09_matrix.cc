/**
 * @file
 * fig09_matrix: the paper's Figure 9 -- the eight Table 4 benchmarks
 * on the four designs at 8 simulated cores -- on one host thread.
 *
 * Set-up generates each benchmark's logical traces once and lowers
 * them once per design; then every (benchmark, design) cell builds a
 * fresh timing machine (caches start empty) and runs it. The cell
 * recipe mirrors core::runExperiment, split so each layer call gets
 * its own span.
 */

#include <cstdio>
#include <optional>
#include <set>

#include "bench.hh"
#include "common/stats.hh"
#include "core/experiment.hh"
#include "persistency/lowering.hh"
#include "workloads/workload.hh"

namespace pmbench
{

namespace
{

using namespace pmemspec;
using persistency::Design;

constexpr unsigned kCores = 8;
/** FASEs per thread: enough for steady-state throughput while a batch
 *  stays a few seconds long. */
constexpr std::uint64_t kOpsPerThread = 400;

/** The paper's Figure 9 geomean over IntelX86 for PMEM-Spec, and its
 *  reported 10.6% lead over HOPS: the only reference in the repo. */
constexpr double kPaperPmemSpec = 1.27;
constexpr double kPaperHops = 1.27 / 1.106;

/** Machine-stat sums: metric name -> flattened stat name with the
 *  per-instance digits stripped (core3 -> core, persistPath1 ->
 *  persistPath). Summed over every instance and every cell. */
struct StatKey
{
    const char *metric;
    const char *stat;
};
constexpr StatKey kStats[] = {
    {"cpu.sfenceStalls", "machine.core.sfenceStalls"},
    {"cpu.dfenceStalls", "machine.core.dfenceStalls"},
    {"cpu.specBarrierStalls", "machine.core.specBarrierStalls"},
    {"cpu.sqFullStalls", "machine.core.sqFullStalls"},
    {"cpu.aborts", "machine.core.aborts"},
    {"cpu.lock.contendedAcquires", "machine.locks.contendedAcquires"},
    {"mem.pmc.reads", "machine.memsys.pmc.reads"},
    {"mem.pmc.writes", "machine.memsys.pmc.writes"},
    {"mem.pmc.writeCoalesces", "machine.memsys.pmc.writeCoalesces"},
    {"mem.pmc.persistsRefused", "machine.memsys.pmc.persistsRefused"},
    {"mem.specbuf.fullPauses", "machine.memsys.pmc.specbuf.fullPauses"},
    {"mem.specbuf.misspecs", "machine.memsys.pmc.specbuf.loadMisspecs"},
    {"mem.specbuf.misspecs", "machine.memsys.pmc.specbuf.storeMisspecs"},
    {"mem.path.pathRetries", "machine.memsys.persistPath.pathRetries"},
    {"mem.persistbuf.depStalls", "machine.memsys.persistBuf.depStalls"},
    {"mem.coherenceInvalidations",
     "machine.memsys.coherenceInvalidations"},
};

std::string
stripInstanceDigits(const std::string &name)
{
    std::string out;
    out.reserve(name.size());
    std::size_t seg = 0;
    while (seg <= name.size()) {
        std::size_t dot = name.find('.', seg);
        if (dot == std::string::npos)
            dot = name.size();
        std::size_t end = dot;
        while (end > seg && name[end - 1] >= '0' && name[end - 1] <= '9')
            --end;
        if (end == seg) // all digits: keep as is
            end = dot;
        if (!out.empty())
            out += '.';
        out.append(name, seg, end - seg);
        seg = dot + 1;
    }
    return out;
}

class Fig09Matrix final : public Workload
{
  public:
    explicit Fig09Matrix(std::uint64_t seed)
    {
        params.numThreads = kCores;
        params.opsPerThread = kOpsPerThread;
        params.seed = seed;
        base = core::defaultMachineConfig(kCores);
        for (const StatKey &k : kStats)
            statMetric.emplace(k.stat, k.metric);
    }

    Batch run(Tracer &tr) override;

  private:
    workloads::WorkloadParams params;
    cpu::MachineConfig base;
    std::map<std::string, std::string> statMetric;
};

Batch
Fig09Matrix::run(Tracer &tr)
{
    const auto benches = workloads::allBenchmarks();
    const auto designs = persistency::allDesigns();
    const auto &dnames = designNames();
    const std::size_t nd = designs.size();
    auto cellOf = [&](std::size_t b, std::size_t d) {
        return static_cast<int>(b * nd + d);
    };

    Batch out;
    auto &ex = out.exact;
    const std::uint64_t expectFases = std::uint64_t{kCores} * kOpsPerThread;
    std::vector<double> thr(benches.size() * nd, 0);
    std::map<std::string, double> statSums;
    for (const StatKey &k : kStats)
        statSums[k.metric] = 0;
    std::set<std::string> statsSeen;
    for (const auto &dn : dnames)
        ex["persistency.instructions." + dn] = 0;
    double logicalEvents = 0;

    // One benchmark at a time, so only its traces are resident: set-up
    // (generate, then lower once per design) and then its four cells.
    for (std::size_t b = 0; b < benches.size(); ++b) {
        Scope benchSpan(tr, "bench", cellOf(b, 0));
        std::vector<std::vector<cpu::Trace>> lowered(nd);
        const auto t0 = Clock::now();
        {
            std::vector<persistency::LogicalTrace> logical;
            {
                Scope s(tr, "workloads.generate", cellOf(b, 0));
                logical = workloads::generateTraces(benches[b], params);
            }
            for (const auto &lt : logical)
                logicalEvents += static_cast<double>(lt.size());
            for (std::size_t d = 0; d < nd; ++d) {
                Scope s(tr, "persistency.lower", cellOf(b, d),
                        static_cast<int>(d));
                lowered[d].reserve(logical.size());
                for (const auto &lt : logical)
                    lowered[d].push_back(persistency::lower(lt, designs[d]));
            }
        }
        out.setupS += secondsSince(t0);
        for (std::size_t d = 0; d < nd; ++d)
            for (const auto &t : lowered[d])
                ex["persistency.instructions." + dnames[d]] +=
                    static_cast<double>(t.size());

        for (std::size_t d = 0; d < nd; ++d) {
            const int c = cellOf(b, d);
            const int di = static_cast<int>(d);
            Scope cellSpan(tr, "cell", c, di);
            cpu::MachineConfig mc = base;
            mc.design = designs[d];
            mc.mem.numCores = kCores;
            // As core::runExperiment: HOPS pays one extra bus cycle
            // between private and shared caches (Section 8.2.2).
            mc.mem.l1ToLlcExtra =
                designs[d] == Design::HOPS ? nsToTicks(1.0) : 0;

            std::optional<cpu::Machine> m;
            {
                Scope s(tr, "cpu.build", c, di);
                m.emplace(mc);
                m->setTraces(std::move(lowered[d]));
            }
            cpu::RunResult r;
            {
                Scope s(tr, "cpu.run", c, di);
                r = m->run();
            }
            std::vector<StatValue> stats;
            {
                Scope s(tr, "cpu.teardown", c, di);
                stats = m->stats().flatten();
                m.reset();
            }

            for (const auto &sv : stats) {
                const auto it = statMetric.find(stripInstanceDigits(sv.name));
                if (it != statMetric.end()) {
                    statSums[it->second] += sv.value;
                    statsSeen.insert(it->first);
                }
            }
            const std::string &dn = dnames[d];
            ex["sim.events." + dn] += static_cast<double>(r.events);
            ex["sim.fases." + dn] += static_cast<double>(r.fases);
            ex["model.sim_ticks." + dn] += static_cast<double>(r.simTicks);
            out.work += r.fases;
            ++out.attempted;
            if (r.fases != expectFases) {
                ++out.failed;
                char buf[160];
                std::snprintf(buf, sizeof buf,
                              "fig09_matrix: %s/%s committed %llu FASEs, "
                              "expected %llu",
                              workloads::benchName(benches[b]), dn.c_str(),
                              static_cast<unsigned long long>(r.fases),
                              static_cast<unsigned long long>(expectFases));
                out.errors.push_back(buf);
            }
            thr[c] = r.throughput();
        }
    }
    for (const auto &[name, v] : statSums)
        ex[name] = v;
    // A renamed machine stat must not read as a silent zero.
    for (const StatKey &k : kStats)
        if (!statsSeen.count(k.stat))
            out.errors.push_back(std::string("fig09_matrix: no machine "
                                             "stat named ") + k.stat);
    ex["workloads.logical_events"] = logicalEvents;

    // Figure 9: per-benchmark throughput over IntelX86, geomean.
    std::vector<double> speedup(nd, 0);
    for (std::size_t d = 0; d < nd; ++d) {
        const std::string &dn = dnames[d];
        ex["sim.events_per_fase." + dn] =
            ex["sim.events." + dn] / ex["sim.fases." + dn];
        std::vector<double> norm;
        for (std::size_t b = 0; b < benches.size(); ++b)
            norm.push_back(thr[cellOf(b, d)] / thr[cellOf(b, 0)]);
        speedup[d] = geomean(norm);
        ex["model.speedup." + dn] = speedup[d];
    }
    const auto idx = [&](Design d) {
        return static_cast<std::size_t>(d);
    };
    ex["model.paper_gap.PMEM-Spec"] =
        speedup[idx(Design::PmemSpec)] / kPaperPmemSpec - 1;
    ex["model.paper_gap.HOPS"] = speedup[idx(Design::HOPS)] / kPaperHops - 1;

    const bool ordered =
        speedup[idx(Design::PmemSpec)] > speedup[idx(Design::HOPS)] &&
        speedup[idx(Design::HOPS)] > speedup[idx(Design::IntelX86)] &&
        speedup[idx(Design::IntelX86)] > speedup[idx(Design::DPO)];
    if (!ordered) {
        char buf[200];
        std::snprintf(buf, sizeof buf,
                      "fig09_matrix: geomean order is not PMEM-Spec > HOPS "
                      "> IntelX86 > DPO (%.4f, %.4f, %.4f, %.4f)",
                      speedup[idx(Design::PmemSpec)],
                      speedup[idx(Design::HOPS)],
                      speedup[idx(Design::IntelX86)],
                      speedup[idx(Design::DPO)]);
        out.errors.push_back(buf);
    }
    out.successRatio = 1 - static_cast<double>(out.failed) /
                               static_cast<double>(out.attempted);
    return out;
}

} // namespace

std::unique_ptr<Workload>
makeFig09Matrix(std::uint64_t seed)
{
    return std::make_unique<Fig09Matrix>(seed);
}

} // namespace pmbench
