#include "experiment.hh"

#include "common/logging.hh"
#include "observe/trace_export.hh"
#include "persistency/lowering.hh"

namespace pmemspec::core
{

using persistency::Design;

cpu::MachineConfig
defaultMachineConfig(unsigned num_cores)
{
    cpu::MachineConfig m;
    m.mem.numCores = num_cores;
    return m; // every default already encodes Table 3
}

double
ExperimentResult::statOr(const std::string &name, double fallback) const
{
    for (const auto &sv : stats)
        if (sv.name == name)
            return sv.value;
    return fallback;
}

ExperimentResult
runExperiment(const ExperimentConfig &cfg)
{
    cpu::MachineConfig machine = cfg.machine;
    machine.design = cfg.design;
    machine.mem.numCores = cfg.workload.numThreads;
    // HOPS pays one extra bus cycle between private and shared
    // caches for the sticky-M bit, on both the request and the
    // response crossing (Section 8.2.2).
    machine.mem.l1ToLlcExtra =
        (cfg.design == Design::HOPS) ? nsToTicks(1.0) : 0;

    auto logical = workloads::generateTraces(cfg.bench, cfg.workload);
    std::vector<cpu::Trace> traces;
    traces.reserve(logical.size());
    for (const auto &lt : logical)
        traces.push_back(persistency::lower(lt, cfg.design));

    cpu::Machine m(machine);
    m.setTraces(std::move(traces));

    ExperimentResult res;
    res.run = m.run();
    res.throughput = res.run.throughput();
    res.stats = m.stats().flatten();
    observe::MetricsRegistry *mreg = m.metricsRegistry();
    if (mreg) {
        res.metricsEnabled = true;
        res.metrics = mreg->series().toJson();
        res.profile = m.specProfile()->toJson();
    }
    if (trace::Manager *tm = m.traceManager()) {
        res.traceEvents = tm->recorded();
        res.traceDropped = tm->dropped();
        if (!tm->config().outPath.empty())
            res.traceFile = observe::exportTraceFile(
                *tm, mreg ? &mreg->series() : nullptr);
    }
    return res;
}

NormalizedRow
makeNormalizedRow(workloads::BenchId bench,
                  const std::vector<Design> &designs,
                  const persistency::DesignTable<double> &raw,
                  Design baseline)
{
    NormalizedRow row;
    row.bench = bench;
    row.baseline = baseline;
    row.designs = designs;
    row.throughput = raw;
    const double base = raw.at(baseline);
    panic_if(base <= 0, "zero baseline throughput");
    for (Design d : persistency::allDesigns())
        row.normalized[d] = raw.at(d) / base;
    return row;
}

void
printConfig(std::ostream &os, const cpu::MachineConfig &cfg)
{
    const auto &m = cfg.mem;
    os << "Core            " << cfg.core.freqGhz << "GHz, "
       << cfg.core.issueWidth << "way-OoO (approx)\n"
       << "                " << cfg.core.sqEntries
       << "-entry Ld/St Queue, MLP " << cfg.core.maxLoads << "\n"
       << "L1 D Cache      " << m.l1Bytes / 1024 << "KB, " << m.l1Ways
       << "-way, private, " << m.l1HitLatency / ticksPerNs
       << "ns hit latency\n"
       << "L2 Cache        " << m.llcBytes / (1024 * 1024) << "MB, "
       << m.llcWays << "-way, shared, "
       << m.llcHitLatency / ticksPerNs << "ns hit latency\n"
       << "PM Controller   " << m.pmcReadQueue << "/" << m.pmcWriteQueue
       << "-entry read/write queue, " << m.specBufferEntries
       << "-entry speculation buffer\n"
       << "PM              Read = " << m.pmReadLatency / ticksPerNs
       << "ns / Write = " << m.pmWriteLatency / ticksPerNs << "ns, "
       << m.pmBanks << " banks\n"
       << "Persist-Path    " << m.persistPathLatency / ticksPerNs
       << "ns (speculation window "
       << m.effectiveSpecWindow() / ticksPerNs << "ns)\n"
       << "Cores           " << m.numCores << "\n";
}

} // namespace pmemspec::core
