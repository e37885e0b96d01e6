/**
 * @file
 * Shared pieces of the pmbench driver: the span tracer, the result of
 * one batch, and the workload interface.
 *
 * A workload is a batch job driven by one caller. main() repeats the
 * batch until the run's time is spent; every batch rebuilds its inputs
 * (the set-up phase) and then simulates. Spans are recorded from the
 * driver's own files, around the calls it makes into each library
 * layer, and only in traced batches.
 */

#ifndef PMBENCH_BENCH_HH
#define PMBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace pmbench
{

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** One recorded span: a call into a layer, or a driver phase. */
struct Span
{
    const char *name = "";  ///< static storage
    double start = 0;       ///< seconds since the tracer's epoch
    double end = 0;
    std::int32_t parent = -1; ///< index into the span list; -1 = root
    std::int32_t cell = -1;   ///< workload-defined cell id
    std::int32_t design = -1; ///< persistency::Design index, -1 = none
};

/** In-memory span recorder. Disabled, open() and close() do nothing,
 *  so untraced batches pay one branch per call site. */
class Tracer
{
  public:
    void setEnabled(bool on) { enabled = on; }
    bool isEnabled() const { return enabled; }

    int open(const char *name, int cell, int design);
    void close(int idx);

    const std::vector<Span> &spans() const { return list; }
    void clear();

  private:
    bool enabled = false;
    Clock::time_point epoch = Clock::now();
    std::vector<Span> list;
    std::vector<int> stack;
};

/** RAII span: closes on scope exit, exceptions included (the crash
 *  explorer unwinds through workload callbacks on every power cut). */
class Scope
{
  public:
    Scope(Tracer &t, const char *name, int cell = -1, int design = -1)
        : tracer(t), idx(t.open(name, cell, design))
    {
    }
    ~Scope() { tracer.close(idx); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer &tracer;
    int idx;
};

/** What one batch produced. */
struct Batch
{
    /** Host seconds spent building inputs before the first
     *  simulation. */
    double setupS = 0;
    /** Units of work completed: committed FASEs, crash trials or
     *  succeeded client ops, depending on the workload. */
    std::uint64_t work = 0;
    /** Units the correctness gate checked and how many failed it. */
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** 1 - error_rate. For fig09_matrix and crash_explore this is
     *  1 - failed / attempted. ycsb_faults gates whole service runs
     *  but reports succeeded / offered client ops here: the injected
     *  faults refuse some ops by design, which is not a gate failure. */
    double successRatio = 1;
    /** Correctness-gate violations; empty = the gate passed. */
    std::vector<std::string> errors;
    /** Exact counts and model.* values: deterministic in the seed,
     *  identical in every batch, and digested. */
    std::map<std::string, double> exact;
};

class Workload
{
  public:
    virtual ~Workload() = default;
    /** Run one batch, recording spans into `tr` when it is on. */
    virtual Batch run(Tracer &tr) = 0;
};

std::unique_ptr<Workload> makeFig09Matrix(std::uint64_t seed);
std::unique_ptr<Workload> makeCrashExplore(std::uint64_t seed);
std::unique_ptr<Workload> makeYcsbFaults(std::uint64_t seed);

/** Design names in column order, as the metric suffixes use them. */
const std::vector<std::string> &designNames();

} // namespace pmbench

#endif // PMBENCH_BENCH_HH
