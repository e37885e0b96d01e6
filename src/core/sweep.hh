/**
 * @file
 * Parallel sweep runner + machine-readable result sink.
 *
 * The paper's evaluation is one big sweep: every figure runs a
 * (benchmark x design x machine) matrix. Each simulated machine is an
 * independent event queue — runExperiment owns its Machine, traces,
 * RNGs and StatGroup tree, and the process-wide logging sink is
 * mutex-protected — so the points embarrassingly parallelise across
 * host threads.
 *
 * Determinism contract: results come back in submission order and
 * every point is deterministic in its config, so `--jobs 1` and
 * `--jobs N` produce byte-identical output (tests/test_sweep_runner
 * enforces this, and a TSan CI job watches for data races).
 */

#ifndef PMEMSPEC_CORE_SWEEP_HH
#define PMEMSPEC_CORE_SWEEP_HH

#include <functional>
#include <string>
#include <vector>

#include "common/json.hh"
#include "core/experiment.hh"
#include "sim/domain_pool.hh"

namespace pmemspec::core
{

/** One labelled point of a sweep. */
struct SweepPoint
{
    /** Stable identifier, e.g. "c16/TPCC/PMEM-Spec". */
    std::string id;
    ExperimentConfig cfg;
};

/** Outcome of one point: the result, or the error that ended it. */
struct SweepResult
{
    std::string id;
    ExperimentConfig cfg;
    ExperimentResult result;
    /** Empty on success; the exception text otherwise. */
    std::string error;

    bool ok() const { return error.empty(); }
};

/**
 * Executes sweep points across a sim::DomainPool of `jobs` host
 * threads (0 = hardware concurrency, clamped to
 * DomainPool::maxThreads). Results are collected in submission
 * order; an exception in one point is captured into its SweepResult
 * and does not poison the pool.
 */
class SweepRunner
{
  public:
    explicit SweepRunner(unsigned jobs = 0) : pool(jobs) {}

    unsigned jobs() const { return pool.threads(); }

    /** Deterministic parallel for over the pool: see
     *  sim::DomainPool::run for the error contract. */
    void
    forEach(std::size_t n, const std::function<void(std::size_t)> &task,
            std::vector<std::string> *errors = nullptr) const
    {
        pool.run(n, task, errors);
    }

    /** Run every point; results in submission order. */
    std::vector<SweepResult>
    run(const std::vector<SweepPoint> &points) const;

  private:
    sim::DomainPool pool;
};

/**
 * The points of a normalized sweep: every benchmark x design (the
 * IntelX86 baseline first when @p designs lacks it) on @p machine,
 * with ids "<id_prefix><bench>/<design>".
 */
std::vector<SweepPoint>
normalizedPoints(const std::vector<workloads::BenchId> &benches,
                 const cpu::MachineConfig &machine,
                 const workloads::WorkloadParams &params,
                 const std::vector<persistency::Design> &designs,
                 const std::string &id_prefix = "");

/**
 * Fold the results of normalizedPoints(benches, ..., designs), which
 * start at results[first], into one NormalizedRow per benchmark.
 * A failed point is fatal.
 */
std::vector<NormalizedRow>
foldNormalized(const std::vector<workloads::BenchId> &benches,
               const std::vector<persistency::Design> &designs,
               const std::vector<SweepResult> &results,
               std::size_t first = 0);

/**
 * Run benchmarks x designs through the runner and fold the raw
 * throughputs into per-benchmark NormalizedRows (the shape of every
 * figure). The baseline design is always measured; `sink`, when
 * non-null, additionally receives every machine-level point.
 */
std::vector<NormalizedRow>
runNormalizedSweep(const std::vector<workloads::BenchId> &benches,
                   const cpu::MachineConfig &machine,
                   const workloads::WorkloadParams &params,
                   const SweepRunner &runner,
                   const std::vector<persistency::Design> &designs =
                       persistency::allDesigns(),
                   class ResultSink *sink = nullptr,
                   const std::string &id_prefix = "");

/**
 * Collects one bench binary's results into the common JSON envelope:
 *
 *   {
 *     "schema": "pmemspec-bench-v1",
 *     "figure": "<binary name>",
 *     "meta":   { "ops_per_thread": ..., ... },
 *     "points": [ { "id", "bench", "design", "cores",
 *                   "throughput", "sim_ticks", "fases", ...,
 *                   "stats": { "<qualified name>": value, ... } } ],
 *     "tables": { "<table>": [ { <figure-specific row> }, ... ] }
 *   }
 *
 * Host-dependent values (wall clock, job count) are deliberately
 * excluded so the same sweep always serializes to the same bytes.
 */
class ResultSink
{
  public:
    static constexpr const char *schemaName = "pmemspec-bench-v1";

    explicit ResultSink(std::string figure);

    /** Record a run-level metadata value (ops, design list, ...). */
    void setMeta(const std::string &key, Json value);

    /** Append one machine-level point. */
    void addPoint(const SweepResult &r);
    void addPoints(const std::vector<SweepResult> &rs);

    /** Append one row to a figure-specific derived table. */
    void addRow(const std::string &table, Json row);

    /** A normalized row in table form (benchmark + one key per
     *  design, paper names). */
    static Json rowJson(const std::string &label,
                        const NormalizedRow &row);

    Json toJson() const;
    void write(std::ostream &os) const;

    /** Serialize to `path`; no-op when the path is empty. Returns
     *  false (with a warn) when the file cannot be written. */
    bool writeFile(const std::string &path) const;

  private:
    std::string figure;
    Json meta = Json::object();
    Json points = Json::array();
    Json tables = Json::object();
};

} // namespace pmemspec::core

#endif // PMEMSPEC_CORE_SWEEP_HH
