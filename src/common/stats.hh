/**
 * @file
 * Lightweight statistics package.
 *
 * Components register named scalars and histograms into a StatGroup;
 * the Experiment layer dumps them after a run. This is a deliberately
 * small subset of the gem5 stats package: enough to report the
 * quantities the paper's evaluation needs (throughput, stall cycles,
 * queue occupancies, misspeculation counts).
 */

#ifndef PMEMSPEC_COMMON_STATS_HH
#define PMEMSPEC_COMMON_STATS_HH

#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "json.hh"

namespace pmemspec
{

/**
 * Nearest-rank quantile index: the 1-based rank of the q-quantile in
 * a population of n samples (ceil(q * n), clamped to [1, n]); 0 when
 * n == 0. Shared by Histogram::quantile and the service harness's
 * sorted-vector latency quantiles so both agree on the convention.
 */
inline std::uint64_t
quantileRank(double q, std::uint64_t n)
{
    if (n == 0)
        return 0;
    if (q < 0)
        q = 0;
    if (q > 1)
        q = 1;
    auto rank = static_cast<std::uint64_t>(
        std::ceil(q * static_cast<double>(n)));
    if (rank == 0)
        rank = 1;
    if (rank > n)
        rank = n;
    return rank;
}

/** A named monotonically increasing counter. */
class Counter
{
  public:
    Counter() = default;

    Counter &operator++() { ++val; return *this; }
    Counter &operator+=(std::uint64_t n) { val += n; return *this; }
    void reset() { val = 0; }

    std::uint64_t value() const { return val; }

  private:
    std::uint64_t val = 0;
};

/** Running scalar statistic tracking sum / min / max / count. */
class Accumulator
{
  public:
    void
    sample(double v)
    {
        sumVal += v;
        if (count == 0 || v < minVal)
            minVal = v;
        if (count == 0 || v > maxVal)
            maxVal = v;
        ++count;
    }

    void
    reset()
    {
        sumVal = minVal = maxVal = 0;
        count = 0;
    }

    /** Fold another accumulator's samples into this one. */
    void
    absorb(const Accumulator &o)
    {
        if (o.count == 0)
            return;
        if (count == 0 || o.minVal < minVal)
            minVal = o.minVal;
        if (count == 0 || o.maxVal > maxVal)
            maxVal = o.maxVal;
        sumVal += o.sumVal;
        count += o.count;
    }

    double sum() const { return sumVal; }
    double mean() const { return count ? sumVal / count : 0; }
    double min() const { return minVal; }
    double max() const { return maxVal; }
    std::uint64_t samples() const { return count; }

  private:
    double sumVal = 0;
    double minVal = 0;
    double maxVal = 0;
    std::uint64_t count = 0;
};

/** Fixed-bucket histogram over [lo, hi) with overflow/underflow bins. */
class Histogram
{
  public:
    Histogram() : Histogram(0, 1, 1) {}

    Histogram(double lo, double hi, std::size_t buckets);

    void sample(double v);
    void reset();

    std::uint64_t bucketCount(std::size_t i) const { return bins[i]; }
    std::size_t buckets() const { return bins.size(); }
    std::uint64_t underflows() const { return underflow; }
    std::uint64_t overflows() const { return overflow; }
    std::uint64_t samples() const { return total; }
    double mean() const { return total ? sum / total : 0; }

    /**
     * Approximate q-quantile (q in [0, 1]) by linear interpolation
     * within the owning bucket. Underflow mass sits at lo, overflow
     * mass at hi (the clamped tails of the recorded range); 0 with no
     * samples.
     */
    double quantile(double q) const;

  private:
    double lo;
    double hi;
    double width;
    std::vector<std::uint64_t> bins;
    std::uint64_t underflow = 0;
    std::uint64_t overflow = 0;
    std::uint64_t total = 0;
    double sum = 0;
};

/** One enumerated statistic: fully qualified dotted name + value. */
struct StatValue
{
    std::string name;
    double value = 0;
    std::string desc;
};

/** Visitation callback: receives every scalar of a subtree. */
using StatVisitor = std::function<void(const StatValue &)>;

/**
 * Registry of named statistics belonging to one component.
 *
 * Groups form a tree through the parent pointer; fully qualified names
 * are dotted paths (e.g. "core0.sq.stallCycles").
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name, StatGroup *parent = nullptr);

    /** Register statistics under this group's namespace. */
    void addCounter(const std::string &name, const Counter *c,
                    const std::string &desc = "");
    void addAccumulator(const std::string &name, const Accumulator *a,
                        const std::string &desc = "");
    void addHistogram(const std::string &name, const Histogram *h,
                      const std::string &desc = "");

    /** The counter registered in this group (not its children) as
     *  @p name, or nullptr. */
    const Counter *findCounter(const std::string &name) const;

    /** Write "name value # desc" lines for this group and children. */
    void dump(std::ostream &os) const;

    /**
     * Visit every statistic of this subtree as flat name→value pairs
     * in registration order (deterministic). Accumulators expand to
     * .mean/.min/.max/.samples, histograms to .mean/.samples/
     * .underflows/.overflows/.p50/.p90/.p99.
     */
    void visit(const StatVisitor &fn) const;

    /** All scalars of the subtree, in visitation order. */
    std::vector<StatValue> flatten() const;

    /** Flat JSON object mapping qualified names to values. Counter
     *  and sample-count scalars stay integral; the rest are doubles. */
    Json toJson() const;

    /** Reset every registered statistic in this subtree. */
    void resetAll();

    const std::string &name() const { return groupName; }
    std::string fullName() const;

  private:
    std::string groupName;
    StatGroup *parent;
    std::vector<StatGroup *> children;

    struct CounterEntry
    {
        std::string name;
        const Counter *counter;
        std::string desc;
    };
    struct AccumEntry
    {
        std::string name;
        const Accumulator *accum;
        std::string desc;
    };
    struct HistEntry
    {
        std::string name;
        const Histogram *hist;
        std::string desc;
    };
    std::vector<CounterEntry> counters;
    std::vector<AccumEntry> accums;
    std::vector<HistEntry> hists;
};

/** Geometric mean of a vector of positive values; 0 if empty. */
double geomean(const std::vector<double> &vals);

} // namespace pmemspec

#endif // PMEMSPEC_COMMON_STATS_HH
