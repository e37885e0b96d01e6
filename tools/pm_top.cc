/**
 * @file
 * pm_top: offline report tool over pmemspec-bench-v1 envelopes with
 * metrics sections.
 *
 *   pm_top RUN.json             render every run's time-series
 *                               dashboard + speculation profile
 *   pm_top RUN.json BASE.json   diff RUN against BASE, aligned by
 *                               run label (design / point id)
 *
 * A "run" is either a tables.service row (ycsb_service: labelled by
 * design) or a points[] entry (machine sweeps: labelled by point id)
 * that carries the "metrics"/"profile" sections emitted under
 * --metrics. The time series renders one line per sampling interval
 * (columns from the merged "total" series); the profile renders one
 * line per FASE site from the pmemspec-profile-v1 section. Exit code
 * 1 on usage / parse / no-metrics errors, 0 otherwise.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hh"

using pmemspec::Json;

namespace
{

/** One renderable run extracted from an envelope. */
struct Run
{
    std::string label;
    const Json *row = nullptr;     ///< the full row/point object
    const Json *series = nullptr;  ///< {"columns": [...], "rows": [...]}
    const Json *profile = nullptr; ///< pmemspec-profile-v1 object
    double intervalUs = 0;
};

[[noreturn]] void
usageExit(const char *prog, int code)
{
    std::fprintf(
        code ? stderr : stdout,
        "usage: %s RUN.json [BASELINE.json]\n"
        "\n"
        "  Renders the --metrics time series and speculation profile\n"
        "  of a pmemspec-bench-v1 envelope as a per-interval text\n"
        "  dashboard; with a second envelope, diffs the two runs\n"
        "  (aligned by design / point id).\n",
        prog);
    std::exit(code);
}

Json
loadEnvelope(const char *prog, const std::string &path)
{
    std::ifstream is(path);
    if (!is) {
        std::fprintf(stderr, "%s: cannot open %s\n", prog,
                     path.c_str());
        std::exit(1);
    }
    std::ostringstream buf;
    buf << is.rdbuf();
    std::string err;
    Json doc = Json::parse(buf.str(), &err);
    if (doc.isNull() && !err.empty()) {
        std::fprintf(stderr, "%s: %s: %s\n", prog, path.c_str(),
                     err.c_str());
        std::exit(1);
    }
    const Json *schema = doc.find("schema");
    if (!schema || schema->str() != "pmemspec-bench-v1") {
        std::fprintf(stderr, "%s: %s is not a pmemspec-bench-v1 "
                     "envelope\n", prog, path.c_str());
        std::exit(1);
    }
    return doc;
}

/** Exit 1: `path` parsed as JSON, but `what` has the wrong shape. */
[[noreturn]] void
shapeExit(const char *prog, const std::string &path,
          const std::string &what)
{
    std::fprintf(stderr, "%s: %s: %s\n", prog, path.c_str(),
                 what.c_str());
    std::exit(1);
}

bool
isArray(const Json *j)
{
    return j && j->type() == Json::Type::Array;
}

/**
 * Pull the (label, series, profile) runs out of one envelope. Every
 * array the renderers index is checked to be one here, so a
 * well-formed document of the wrong shape exits 1 with a diagnostic.
 */
std::vector<Run>
extractRuns(const char *prog, const std::string &path, const Json &doc)
{
    std::vector<Run> runs;
    auto addRun = [&](const std::string &label, const Json &row) {
        const Json *metrics = row.find("metrics");
        const Json *profile = row.find("profile");
        if (!metrics && !profile)
            return;
        Run r;
        r.label = label;
        r.row = &row;
        r.profile = profile;
        if (profile) {
            const Json *sites = profile->find("sites");
            if (sites && !isArray(sites))
                shapeExit(prog, path,
                          label + ": profile sites is not an array");
        }
        if (metrics) {
            // Service rows nest the merged series under "total";
            // sweep points carry a bare {columns, rows} series.
            r.series = metrics->find("total");
            if (!r.series && metrics->find("columns"))
                r.series = metrics;
            if (const Json *iv = metrics->find("interval_us"))
                r.intervalUs = iv->number();
        }
        if (r.series) {
            const Json *cols = r.series->find("columns");
            const Json *rows = r.series->find("rows");
            if ((cols && !isArray(cols)) || (rows && !isArray(rows)))
                shapeExit(prog, path,
                          label + ": series columns and rows must be "
                                  "arrays");
            for (std::size_t i = 0; rows && i < rows->size(); ++i)
                if (!isArray(&rows->at(i)) || rows->at(i).size() == 0)
                    shapeExit(prog, path,
                              label + ": series row " + std::to_string(i) +
                                  " is not a non-empty array");
        }
        runs.push_back(r);
    };

    if (const Json *tables = doc.find("tables")) {
        if (tables->type() != Json::Type::Object)
            shapeExit(prog, path, "\"tables\" is not an object");
        for (const auto &[name, rows] : tables->members()) {
            if (!isArray(&rows))
                shapeExit(prog, path,
                          "table \"" + name + "\" is not an array");
            for (std::size_t i = 0; i < rows.size(); ++i) {
                const Json &row = rows.at(i);
                const Json *design = row.find("design");
                const std::string label =
                    design ? design->str()
                           : name + "[" + std::to_string(i) + "]";
                addRun(label, row);
            }
        }
    }
    if (const Json *points = doc.find("points")) {
        if (!isArray(points))
            shapeExit(prog, path, "\"points\" is not an array");
        for (std::size_t i = 0; i < points->size(); ++i) {
            const Json &p = points->at(i);
            const Json *id = p.find("id");
            addRun(id ? id->str() : "point" + std::to_string(i), p);
        }
    }
    return runs;
}

std::string
fmtValue(double v)
{
    char buf[32];
    if (v == std::floor(v) && std::fabs(v) < 1e15)
        std::snprintf(buf, sizeof(buf), "%lld",
                      static_cast<long long>(v));
    else
        std::snprintf(buf, sizeof(buf), "%.1f", v);
    return buf;
}

/** Per-interval dashboard: one line per sampled row. */
void
renderSeries(const Json &series)
{
    const Json *cols = series.find("columns");
    const Json *rows = series.find("rows");
    if (!cols || !rows || rows->size() == 0) {
        std::printf("  (no sampled rows)\n");
        return;
    }
    std::printf("  %10s", "t(us)");
    for (std::size_t c = 0; c < cols->size(); ++c)
        std::printf(" %14s", cols->at(c).str().c_str());
    std::printf("\n");
    for (std::size_t r = 0; r < rows->size(); ++r) {
        const Json &row = rows->at(r);
        // row[0] is the timestamp in ns, then one value per column.
        std::printf("  %10.0f", row.at(0).number() / 1000.0);
        for (std::size_t c = 1; c < row.size(); ++c)
            std::printf(" %14s", fmtValue(row.at(c).number()).c_str());
        std::printf("\n");
    }
}

double
siteNum(const Json &site, const char *key)
{
    const Json *v = site.find(key);
    return v ? v->number() : 0;
}

void
renderProfile(const Json &profile)
{
    const Json *schema = profile.find("schema");
    if (schema)
        std::printf("  profile schema: %s\n", schema->str().c_str());
    const Json *sites = profile.find("sites");
    if (!sites || sites->size() == 0) {
        std::printf("  (no FASE sites)\n");
        return;
    }
    std::printf("  %-12s %9s %9s %7s %8s %7s %6s %6s %9s %8s\n",
                "site", "execs", "commits", "aborts", "misspec",
                "budget", "power", "media", "persists",
                "resid(us)");
    for (std::size_t i = 0; i < sites->size(); ++i) {
        const Json &s = sites->at(i);
        const Json *name = s.find("name");
        const Json *aborts = s.find("aborts");
        const Json *resid = s.find("residency");
        const double meanNs =
            resid ? siteNum(*resid, "mean_ns") : 0;
        std::printf(
            "  %-12s %9.0f %9.0f %7.0f %8.0f %7.0f %6.0f %6.0f "
            "%9.0f %8.1f\n",
            name ? name->str().c_str() : "?",
            siteNum(s, "executions"), siteNum(s, "commits"),
            siteNum(s, "aborts_total"),
            aborts ? siteNum(*aborts, "misspec") : 0,
            aborts ? siteNum(*aborts, "budget") : 0,
            aborts ? siteNum(*aborts, "power_cut") : 0,
            aborts ? siteNum(*aborts, "media") : 0,
            siteNum(s, "persists"), meanNs / 1000.0);
    }
}

void
renderRun(const Run &run)
{
    std::printf("== %s ==\n", run.label.c_str());
    if (run.row) {
        const Json *tput = run.row->find("throughput_ops_s");
        const Json *avail = run.row->find("availability");
        const Json *thr = run.row->find("throughput");
        if (tput)
            std::printf("  throughput: %.0f ops/s", tput->number());
        else if (thr)
            std::printf("  throughput: %.0f FASEs/s", thr->number());
        if (avail)
            std::printf("  availability: %.4f", avail->number());
        if (tput || thr || avail)
            std::printf("\n");
    }
    if (run.intervalUs > 0)
        std::printf("  sampling interval: %.0f us\n", run.intervalUs);
    if (run.series) {
        std::printf("-- time series --\n");
        renderSeries(*run.series);
    }
    if (run.profile) {
        std::printf("-- speculation profile --\n");
        renderProfile(*run.profile);
    }
    std::printf("\n");
}

std::string
fmtDelta(double cur, double base)
{
    char buf[48];
    const double d = cur - base;
    if (base != 0)
        std::snprintf(buf, sizeof(buf), "%+.0f (%+.1f%%)", d,
                      100.0 * d / base);
    else
        std::snprintf(buf, sizeof(buf), "%+.0f", d);
    return buf;
}

const Run *
findRun(const std::vector<Run> &runs, const std::string &label)
{
    for (const auto &r : runs)
        if (r.label == label)
            return &r;
    return nullptr;
}

const Json *
findSite(const Json &sites, const std::string &name)
{
    for (std::size_t i = 0; i < sites.size(); ++i) {
        const Json *n = sites.at(i).find("name");
        if (n && n->str() == name)
            return &sites.at(i);
    }
    return nullptr;
}

/** Diff one aligned pair of runs: headline numbers + per-site
 *  profile deltas. */
void
diffRun(const Run &cur, const Run &base)
{
    std::printf("== %s (run vs baseline) ==\n", cur.label.c_str());
    auto headline = [&](const char *key, const char *unit) {
        const Json *a = cur.row ? cur.row->find(key) : nullptr;
        const Json *b = base.row ? base.row->find(key) : nullptr;
        if (a && b)
            std::printf("  %-18s %12.2f vs %12.2f  %s %s\n", key,
                        a->number(), b->number(),
                        fmtDelta(a->number(), b->number()).c_str(),
                        unit);
    };
    headline("throughput_ops_s", "ops/s");
    headline("throughput", "FASEs/s");
    headline("availability", "");

    if (!cur.profile || !base.profile) {
        std::printf("  (profile missing on one side)\n\n");
        return;
    }
    const Json *cs = cur.profile->find("sites");
    const Json *bs = base.profile->find("sites");
    if (!cs || !bs) {
        std::printf("  (profile missing on one side)\n\n");
        return;
    }
    std::printf("  %-12s %-12s %14s %14s %20s\n", "site", "field",
                "run", "baseline", "delta");
    static const char *fields[] = {"executions", "commits",
                                   "aborts_total", "persists",
                                   "dirty_blocks"};
    for (std::size_t i = 0; i < cs->size(); ++i) {
        const Json &s = cs->at(i);
        const Json *name = s.find("name");
        if (!name)
            continue;
        const Json *o = findSite(*bs, name->str());
        if (!o) {
            std::printf("  %-12s (absent from baseline)\n",
                        name->str().c_str());
            continue;
        }
        for (const char *f : fields) {
            const double a = siteNum(s, f), b = siteNum(*o, f);
            if (a == 0 && b == 0)
                continue;
            std::printf("  %-12s %-12s %14.0f %14.0f %20s\n",
                        name->str().c_str(), f, a, b,
                        fmtDelta(a, b).c_str());
        }
    }
    std::printf("\n");
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2 || argc > 3)
        usageExit(argv[0], argc < 2 ? 1 : 1);
    const std::string arg1 = argv[1];
    if (arg1 == "--help" || arg1 == "-h")
        usageExit(argv[0], 0);

    const Json doc = loadEnvelope(argv[0], arg1);
    const std::vector<Run> runs = extractRuns(argv[0], arg1, doc);
    if (runs.empty()) {
        std::fprintf(stderr,
                     "%s: %s has no metrics/profile sections (run "
                     "the bench with --metrics)\n",
                     argv[0], arg1.c_str());
        return 1;
    }

    if (argc == 2) {
        const Json *figure = doc.find("figure");
        std::printf("# pm_top: %s (%zu run%s with metrics)\n\n",
                    figure ? figure->str().c_str() : "?", runs.size(),
                    runs.size() == 1 ? "" : "s");
        for (const Run &r : runs)
            renderRun(r);
        return 0;
    }

    const Json baseDoc = loadEnvelope(argv[0], argv[2]);
    const std::vector<Run> baseRuns =
        extractRuns(argv[0], argv[2], baseDoc);
    std::printf("# pm_top diff: %s vs %s\n\n", argv[1], argv[2]);
    bool any = false;
    for (const Run &r : runs) {
        if (const Run *b = findRun(baseRuns, r.label)) {
            diffRun(r, *b);
            any = true;
        } else {
            std::printf("== %s == (absent from baseline)\n\n",
                        r.label.c_str());
        }
    }
    if (!any) {
        std::fprintf(stderr,
                     "%s: no run labels in common between the two "
                     "envelopes\n", argv[0]);
        return 1;
    }
    return 0;
}
