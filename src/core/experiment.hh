/**
 * @file
 * The public top-level API: configure a simulated machine (Table 3
 * defaults), pick a benchmark (Table 4) and a design (Section 8.1),
 * and measure throughput. The bench harness builds every figure of
 * the paper out of these calls.
 */

#ifndef PMEMSPEC_CORE_EXPERIMENT_HH
#define PMEMSPEC_CORE_EXPERIMENT_HH

#include <ostream>
#include <string>
#include <vector>

#include "common/json.hh"
#include "common/stats.hh"
#include "cpu/machine.hh"
#include "persistency/design.hh"
#include "workloads/workload.hh"

namespace pmemspec::core
{

/**
 * One experiment: a benchmark on a design with machine knobs.
 *
 * The named setters chain, so bench code builds a point in one
 * expression instead of hand-assembling WorkloadParams:
 *
 *   ExperimentConfig()
 *       .withBench(BenchId::Tpcc)
 *       .withDesign(Design::PmemSpec)
 *       .withMachine(defaultMachineConfig(8))
 *       .withThreads(8)
 *       .withOps(400);
 */
struct ExperimentConfig
{
    workloads::BenchId bench = workloads::BenchId::ArraySwaps;
    persistency::Design design = persistency::Design::IntelX86;
    cpu::MachineConfig machine;
    workloads::WorkloadParams workload;

    ExperimentConfig &
    withBench(workloads::BenchId b)
    {
        bench = b;
        return *this;
    }

    ExperimentConfig &
    withDesign(persistency::Design d)
    {
        design = d;
        return *this;
    }

    ExperimentConfig &
    withMachine(const cpu::MachineConfig &m)
    {
        machine = m;
        return *this;
    }

    ExperimentConfig &
    withThreads(unsigned n)
    {
        workload.numThreads = n;
        return *this;
    }

    ExperimentConfig &
    withOps(std::uint64_t ops)
    {
        workload.opsPerThread = ops;
        return *this;
    }

    ExperimentConfig &
    withSeed(std::uint64_t seed)
    {
        workload.seed = seed;
        return *this;
    }
};

/** Measured outcome of one experiment. */
struct ExperimentResult
{
    cpu::RunResult run;
    /** FASEs per second (the figures' throughput metric). */
    double throughput = 0;
    /** Flat snapshot of the machine's StatGroup tree, taken after the
     *  run (the machine itself dies with runExperiment). */
    std::vector<StatValue> stats;

    /** Trace metadata (zero / empty when tracing was off): events
     *  retained, events dropped on full rings, and the file the
     *  stream was exported to ("" when no outPath was configured or
     *  the export failed). */
    std::uint64_t traceEvents = 0;
    std::uint64_t traceDropped = 0;
    std::string traceFile;

    /** Sampled time series + pmemspec-profile-v1 section, captured
     *  before the machine dies; null Json when metrics were off. */
    bool metricsEnabled = false;
    Json metrics;
    Json profile;

    /** Look up one snapshot scalar by qualified name. */
    double statOr(const std::string &name, double fallback = 0) const;
};

/**
 * Generate the traces once, lower them for the design, and run the
 * timing machine. Deterministic in its config, and safe to call from
 * concurrent host threads (every run owns its machine, event queue,
 * RNGs and stats).
 */
ExperimentResult runExperiment(const ExperimentConfig &cfg);

/**
 * One figure row: a benchmark's raw and normalised throughput per
 * design (the paper normalises every figure to IntelX86).
 */
struct NormalizedRow
{
    workloads::BenchId bench = workloads::BenchId::ArraySwaps;
    persistency::Design baseline = persistency::Design::IntelX86;
    /** Designs of this row in column order. */
    std::vector<persistency::Design> designs;
    /** Raw FASEs per second, one inline slot per design (designs not
     *  measured in this row read as 0). */
    persistency::DesignTable<double> throughput;
    /** Throughput divided by the baseline design's. */
    persistency::DesignTable<double> normalized;
};

/** Assemble a NormalizedRow from raw per-design throughputs. */
NormalizedRow
makeNormalizedRow(workloads::BenchId bench,
                  const std::vector<persistency::Design> &designs,
                  const persistency::DesignTable<double> &raw,
                  persistency::Design baseline =
                      persistency::Design::IntelX86);

/** Print the Table 3 configuration of a machine. */
void printConfig(std::ostream &os, const cpu::MachineConfig &cfg);

/** Table 3 defaults: 2GHz 8-way cores, 32-entry SQ, 64KB L1, 16MB
 *  LLC, Optane latencies, 20ns persist-path, 4-entry spec buffer. */
cpu::MachineConfig defaultMachineConfig(unsigned num_cores = 8);

} // namespace pmemspec::core

#endif // PMEMSPEC_CORE_EXPERIMENT_HH
