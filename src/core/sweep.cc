#include "sweep.hh"

#include <algorithm>
#include <fstream>

#include "common/logging.hh"

namespace pmemspec::core
{

using persistency::Design;

std::vector<SweepResult>
SweepRunner::run(const std::vector<SweepPoint> &points) const
{
    std::vector<SweepResult> results(points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        results[i].id = points[i].id;
        results[i].cfg = points[i].cfg;
        // Per-point trace exports must not clobber each other: label
        // every unlabelled point with its id (the exporter inserts it
        // before the outPath extension, sanitizing separators).
        auto &tc = results[i].cfg.machine.trace;
        if (!tc.outPath.empty() && tc.label.empty())
            tc.label = points[i].id;
    }
    std::vector<std::string> errors;
    forEach(points.size(),
            [&](std::size_t i) {
                results[i].result = runExperiment(results[i].cfg);
            },
            &errors);
    for (std::size_t i = 0; i < points.size(); ++i)
        results[i].error = errors[i];
    return results;
}

namespace
{

/** The designs a normalized sweep runs: @p designs, with the
 *  baseline put first when it is missing. */
std::vector<Design>
withBaseline(const std::vector<Design> &designs)
{
    std::vector<Design> to_run = designs;
    if (std::find(to_run.begin(), to_run.end(), Design::IntelX86) ==
        to_run.end())
        to_run.insert(to_run.begin(), Design::IntelX86);
    return to_run;
}

} // namespace

std::vector<SweepPoint>
normalizedPoints(const std::vector<workloads::BenchId> &benches,
                 const cpu::MachineConfig &machine,
                 const workloads::WorkloadParams &params,
                 const std::vector<Design> &designs,
                 const std::string &id_prefix)
{
    const std::vector<Design> to_run = withBaseline(designs);
    std::vector<SweepPoint> points;
    points.reserve(benches.size() * to_run.size());
    for (auto b : benches) {
        for (Design d : to_run) {
            SweepPoint p;
            p.id = id_prefix + workloads::benchName(b) + "/" +
                   persistency::designName(d);
            p.cfg.withBench(b).withDesign(d).withMachine(machine);
            p.cfg.workload = params;
            points.push_back(std::move(p));
        }
    }
    return points;
}

std::vector<NormalizedRow>
foldNormalized(const std::vector<workloads::BenchId> &benches,
               const std::vector<Design> &designs,
               const std::vector<SweepResult> &results, std::size_t first)
{
    const std::vector<Design> to_run = withBaseline(designs);
    std::vector<NormalizedRow> rows;
    rows.reserve(benches.size());
    std::size_t idx = first;
    for (auto b : benches) {
        persistency::DesignTable<double> raw;
        for (Design d : to_run) {
            const auto &r = results.at(idx++);
            fatal_if(!r.ok(), "sweep point %s failed: %s",
                     r.id.c_str(), r.error.c_str());
            raw[d] = r.result.throughput;
        }
        rows.push_back(makeNormalizedRow(b, designs, raw));
    }
    return rows;
}

std::vector<NormalizedRow>
runNormalizedSweep(const std::vector<workloads::BenchId> &benches,
                   const cpu::MachineConfig &machine,
                   const workloads::WorkloadParams &params,
                   const SweepRunner &runner,
                   const std::vector<Design> &designs, ResultSink *sink,
                   const std::string &id_prefix)
{
    const auto results = runner.run(
        normalizedPoints(benches, machine, params, designs, id_prefix));
    if (sink)
        sink->addPoints(results);
    return foldNormalized(benches, designs, results);
}

ResultSink::ResultSink(std::string figure_) : figure(std::move(figure_))
{
}

void
ResultSink::setMeta(const std::string &key, Json value)
{
    meta.set(key, std::move(value));
}

void
ResultSink::addPoint(const SweepResult &r)
{
    Json p = Json::object();
    p.set("id", Json(r.id));
    p.set("bench", Json(workloads::benchName(r.cfg.bench)));
    p.set("design", Json(persistency::designName(r.cfg.design)));
    p.set("cores", Json(r.cfg.workload.numThreads));
    p.set("ops_per_thread",
          Json(std::uint64_t{r.cfg.workload.opsPerThread}));
    p.set("seed", Json(std::uint64_t{r.cfg.workload.seed}));
    if (!r.ok()) {
        p.set("error", Json(r.error));
        points.push(std::move(p));
        return;
    }
    p.set("throughput", Json(r.result.throughput));
    const auto &run = r.result.run;
    p.set("sim_ticks", Json(std::uint64_t{run.simTicks}));
    p.set("fases", Json(std::uint64_t{run.fases}));
    p.set("instructions", Json(std::uint64_t{run.instructions}));
    p.set("load_misspecs", Json(std::uint64_t{run.loadMisspecs}));
    p.set("store_misspecs", Json(std::uint64_t{run.storeMisspecs}));
    p.set("aborts", Json(std::uint64_t{run.aborts}));
    p.set("spec_buf_full_pauses",
          Json(std::uint64_t{run.specBufFullPauses}));
    p.set("cross_pmc_reorder_hazards",
          Json(std::uint64_t{run.crossPmcReorderHazards}));
    Json stats = Json::object();
    for (const auto &sv : r.result.stats) {
        const auto u = static_cast<std::uint64_t>(sv.value);
        if (sv.value >= 0 && static_cast<double>(u) == sv.value)
            stats.set(sv.name, Json(u));
        else
            stats.set(sv.name, Json(sv.value));
    }
    p.set("stats", std::move(stats));
    if (r.cfg.machine.trace.enabled()) {
        Json t = Json::object();
        t.set("events", Json(std::uint64_t{r.result.traceEvents}));
        t.set("dropped", Json(std::uint64_t{r.result.traceDropped}));
        if (!r.result.traceFile.empty())
            t.set("file", Json(r.result.traceFile));
        p.set("trace", std::move(t));
    }
    if (r.result.metricsEnabled) {
        p.set("metrics", r.result.metrics);
        p.set("profile", r.result.profile);
    }
    points.push(std::move(p));
}

void
ResultSink::addPoints(const std::vector<SweepResult> &rs)
{
    for (const auto &r : rs)
        addPoint(r);
}

void
ResultSink::addRow(const std::string &table, Json row)
{
    Json *arr = tables.find(table);
    if (!arr) {
        tables.set(table, Json::array());
        arr = tables.find(table);
    }
    arr->push(std::move(row));
}

Json
ResultSink::rowJson(const std::string &label, const NormalizedRow &row)
{
    Json r = Json::object();
    r.set("benchmark", Json(label));
    r.set("baseline", Json(persistency::designName(row.baseline)));
    for (Design d : row.designs)
        r.set(persistency::designName(d),
              Json(row.normalized.at(d)));
    Json raw = Json::object();
    for (Design d : row.designs)
        raw.set(persistency::designName(d), Json(row.throughput.at(d)));
    r.set("throughput", std::move(raw));
    return r;
}

Json
ResultSink::toJson() const
{
    Json root = Json::object();
    root.set("schema", Json(schemaName));
    root.set("figure", Json(figure));
    root.set("meta", meta);
    // Tools that never run machine-level experiments (crash_check,
    // ycsb_service) only fill tables; an always-empty points array
    // just misleads consumers into thinking the sweep ran dry.
    if (points.size() != 0)
        root.set("points", points);
    root.set("tables", tables);
    return root;
}

void
ResultSink::write(std::ostream &os) const
{
    toJson().write(os, 2);
    os << '\n';
}

bool
ResultSink::writeFile(const std::string &path) const
{
    if (path.empty())
        return true;
    std::ofstream os(path);
    if (!os) {
        warn("cannot write JSON results to %s", path.c_str());
        return false;
    }
    write(os);
    return static_cast<bool>(os);
}

} // namespace pmemspec::core
