/**
 * @file
 * The metric catalogue, span aggregation and output helpers of the
 * pmbench driver.
 */

#ifndef PMBENCH_REPORT_HH
#define PMBENCH_REPORT_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench.hh"

namespace pmbench
{

/** A reported metric. Its direction and regression bound live in
 *  BENCHMARK.json. */
struct MetricDef
{
    std::string name;
    std::string unit;
};

/** Printed with --trace 0, in order. */
const std::vector<MetricDef> &endToEndMetrics();
/** Printed with --trace 1, in order. Every workload prints every
 *  metric; a layer a workload never calls reads 0. */
const std::vector<MetricDef> &perLayerMetrics();

/** Self and total host seconds per span name, folded over the traced
 *  batches. A span's self time is its duration minus its children's. */
class SpanTotals
{
  public:
    /** Fold one traced batch whose spans passed checkSpans(). */
    void add(const std::vector<Span> &spans);

    double self(const std::string &name, int design = -1) const;
    double total(const std::string &name) const;
    /** Summed duration of the root spans (traced batch walls). */
    double wall() const { return rootWall; }

  private:
    std::map<std::pair<std::string, int>, double> selfByDesign;
    std::map<std::string, double> selfByName;
    std::map<std::string, double> totalByName;
    double rootWall = 0;
};

/** Check one traced batch against the driver's own clock: a single
 *  root span, every span closed and inside its parent, and the root
 *  covering the externally timed batch wall. Returns "" when the
 *  spans hold, else what is wrong. */
std::string checkSpans(const std::vector<Span> &spans, double batchWall);

/** FNV-1a over "name=value" lines of the exact values, sorted by name
 *  and printed with all 17 significant digits. */
std::uint64_t digest(const std::map<std::string, double> &exact);

/** Write spans as tab-separated rows (index, parent, name, cell,
 *  design, start_s, end_s). Returns false on an I/O error. */
bool writeSpans(const std::string &path, const std::vector<Span> &spans);

/** One-line JSON host fingerprint: nproc, CPU model, compiler, build
 *  type and seed. */
std::string hostFingerprint(std::uint64_t seed);

/** True when the driver was compiled as a Release (optimised) build. */
bool releaseBuild();

} // namespace pmbench

#endif // PMBENCH_REPORT_HH
