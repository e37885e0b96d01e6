/**
 * @file
 * Low-overhead time-series metrics registry.
 *
 * A MetricsRegistry holds named gauges (std::function<double()>) in
 * registration order. Counters are sampled under their qualified
 * StatGroup name (addStat); only true gauges, which have no
 * end-of-run stat, are registered as bare functions. sample()
 * evaluates every gauge and appends one row stamped with the
 * simulated tick. A MetricsSampler drives the
 * registry from a domain's EventQueue on a fixed simulated-time
 * cadence. One registry per simulation domain keeps the single-writer
 * discipline that DomainPool determinism depends on: rows are a pure
 * function of simulated state, so merged output is byte-identical for
 * any --sim-threads value.
 *
 * The sampled rows detach into a plain MetricsSeries (columns + rows)
 * which survives the registry/domain and supports deterministic
 * cross-shard summation (sumSeries) and JSON emission with the
 * integral-stays-integral formatting rule the bench envelope uses.
 */

#ifndef PMEMSPEC_OBSERVE_METRICS_HH
#define PMEMSPEC_OBSERVE_METRICS_HH

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/json.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "sim/event_queue.hh"

namespace pmemspec::observe
{

/** Rides in MachineConfig / ServiceConfig, mirroring trace::Config. */
struct MetricsConfig
{
    bool sample = false;
    /** Simulated-time sampling cadence (default 100us). */
    Tick interval = nsToTicks(100000);

    bool enabled() const { return sample && interval > 0; }
};

/**
 * Detached, copyable sample matrix: one column per registered gauge,
 * one row per sampler firing. Ticks are absolute simulated time.
 */
struct MetricsSeries
{
    struct Row
    {
        Tick at = 0;
        std::vector<double> values;
    };

    std::vector<std::string> columns;
    std::vector<Row> rows;

    bool empty() const { return rows.empty(); }

    /** {"columns": [...], "rows": [[t_ns, v...], ...]} with integral
     *  values emitted as integers so output is bit-stable. */
    Json toJson() const;
};

/** Element-wise sum of per-shard series (columns must match; the
 *  result has max(rows) rows, absent rows contribute zero). Summation
 *  runs in `parts` order, so the result is deterministic. */
MetricsSeries sumSeries(const std::vector<MetricsSeries> &parts);

/**
 * Named-gauge registry. Single writer: owned by one simulation domain
 * (or one Machine) and only ever sampled from that domain's event
 * loop. Registration order defines the column order.
 */
class MetricsRegistry
{
  public:
    using Gauge = std::function<double()>;

    /** Register a gauge; evaluated at every sample(). */
    void
    addGauge(std::string name, Gauge fn)
    {
        series_.columns.push_back(std::move(name));
        gauges.push_back(std::move(fn));
    }

    /**
     * Sample the running value of the counter registered in @p group
     * as @p name. The column is the counter's qualified StatGroup
     * name, so the series and the end-of-run stats share one name per
     * quantity; an unknown name is fatal.
     */
    void addStat(const StatGroup &group, const std::string &name);

    std::size_t numColumns() const { return series_.columns.size(); }
    std::size_t numRows() const { return series_.rows.size(); }

    /** Evaluate every gauge and append one row at @p now. */
    void sample(Tick now);

    /** The accumulated series (columns + rows). */
    const MetricsSeries &series() const { return series_; }

    /** Move the series out (registry keeps its columns/gauges). */
    MetricsSeries takeSeries();

  private:
    MetricsSeries series_;
    std::vector<Gauge> gauges;
};

/**
 * Drives a MetricsRegistry from an EventQueue: fires every `interval`
 * simulated ticks, samples, and re-arms only while the queue still
 * has other pending work — so eq.run() terminates exactly when the
 * simulation would have without the sampler.
 */
class MetricsSampler
{
  public:
    MetricsSampler(sim::EventQueue &eq, MetricsRegistry &reg,
                   Tick interval)
        : eq(eq), reg(reg), interval(interval)
    {
    }

    /** Schedule the first sample one interval from now. */
    void
    start()
    {
        if (interval == 0)
            return;
        eq.schedule(sim::After{interval}, [this] { fire(); });
    }

    std::size_t fired() const { return firings; }

  private:
    void
    fire()
    {
        ++firings;
        reg.sample(eq.now());
        // The sampler must not keep an otherwise-drained queue alive.
        if (!eq.empty())
            eq.schedule(sim::After{interval}, [this] { fire(); });
    }

    sim::EventQueue &eq;
    MetricsRegistry &reg;
    Tick interval;
    std::size_t firings = 0;
};

} // namespace pmemspec::observe

#endif // PMEMSPEC_OBSERVE_METRICS_HH
