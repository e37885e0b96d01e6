#include "metrics.hh"

#include <cassert>

#include "common/logging.hh"

namespace pmemspec::observe
{

namespace
{

/** Emit integral doubles as JSON integers (matches StatGroup::toJson)
 *  so repeated runs serialize bit-identically. */
Json
numberJson(double v)
{
    const auto u = static_cast<std::uint64_t>(v);
    if (v >= 0 && static_cast<double>(u) == v)
        return Json(u);
    return Json(v);
}

} // namespace

Json
MetricsSeries::toJson() const
{
    Json j = Json::object();
    Json cols = Json::array();
    for (const std::string &c : columns)
        cols.push(Json(c));
    j.set("columns", std::move(cols));
    Json rws = Json::array();
    for (const Row &r : rows) {
        Json row = Json::array();
        row.push(Json(static_cast<std::uint64_t>(r.at / ticksPerNs)));
        for (double v : r.values)
            row.push(numberJson(v));
        rws.push(std::move(row));
    }
    j.set("rows", std::move(rws));
    return j;
}

MetricsSeries
sumSeries(const std::vector<MetricsSeries> &parts)
{
    MetricsSeries out;
    if (parts.empty())
        return out;
    out.columns = parts.front().columns;
    std::size_t nrows = 0;
    for (const MetricsSeries &p : parts) {
        assert(p.columns == out.columns && "series columns must match");
        nrows = std::max(nrows, p.rows.size());
    }
    out.rows.resize(nrows);
    for (std::size_t i = 0; i < nrows; ++i) {
        MetricsSeries::Row &row = out.rows[i];
        row.values.assign(out.columns.size(), 0.0);
        for (const MetricsSeries &p : parts) {
            if (i >= p.rows.size())
                continue;
            // Samplers fire on a shared cadence, so row i carries the
            // same tick in every part that reached it.
            row.at = p.rows[i].at;
            for (std::size_t c = 0; c < row.values.size(); ++c)
                row.values[c] += p.rows[i].values[c];
        }
    }
    return out;
}

void
MetricsRegistry::addStat(const StatGroup &group, const std::string &name)
{
    const Counter *c = group.findCounter(name);
    fatal_if(!c, "metrics: no counter '%s' in stat group '%s'",
             name.c_str(), group.fullName().c_str());
    addGauge(group.fullName() + "." + name,
             [c] { return static_cast<double>(c->value()); });
}

void
MetricsRegistry::sample(Tick now)
{
    MetricsSeries::Row row;
    row.at = now;
    row.values.reserve(gauges.size());
    for (const Gauge &g : gauges)
        row.values.push_back(g());
    series_.rows.push_back(std::move(row));
}

MetricsSeries
MetricsRegistry::takeSeries()
{
    MetricsSeries out = std::move(series_);
    series_.columns = out.columns;
    series_.rows.clear();
    return out;
}

} // namespace pmemspec::observe
