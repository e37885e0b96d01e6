/**
 * @file
 * Tests for the observability layer (src/observe/metrics,
 * src/observe/spec_profile) and its service integration:
 *
 *  - the metrics registry / sampler sample on the simulated cadence
 *    and never keep a drained event queue alive;
 *  - per-shard series merge deterministically (sumSeries) and the
 *    profile merges site-by-site (mergeFrom);
 *  - a ycsb_service-shaped run emits byte-identical metrics/profile
 *    JSON at --sim-threads 1 and 4 (the DESIGN.md section 12
 *    contract extended to the metrics sections);
 *  - with metrics off the result JSON carries no metrics/profile
 *    keys and every other byte matches a metrics-on run (sampling
 *    must observe, never perturb);
 *  - every counter column of a timing machine's series is named by
 *    its StatGroup key and never runs ahead of the end-of-run stat;
 *  - Json::parse round-trips the writer's output byte-identically
 *    (pm_top's input path);
 *  - quantileRank agrees between Histogram and the service quantile;
 *  - pm_top, run as a process on seeded mutants of a --metrics
 *    envelope, renders each one or exits 1, and never aborts.
 */

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/json.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "core/experiment.hh"
#include "core/sweep.hh"
#include "observe/metrics.hh"
#include "observe/spec_profile.hh"
#include "persistency/lowering.hh"
#include "service/service.hh"
#include "sim/event_queue.hh"

using namespace pmemspec;
using observe::AbortCause;
using observe::MetricsRegistry;
using observe::MetricsSampler;
using observe::MetricsSeries;
using observe::SpecProfile;
using service::Service;
using service::ServiceConfig;
using service::ServiceResult;

namespace
{

/** Small but eventful: 4 shards, faults on three of them. */
ServiceConfig
metricsConfig()
{
    ServiceConfig cfg;
    cfg.shards = 4;
    cfg.clients = 8;
    cfg.keySpace = 512;
    cfg.interArrival = nsToTicks(32000);
    cfg.duration = nsToTicks(4000000);
    cfg.pmBytesPerShard = std::size_t{1} << 21;
    cfg.buckets = 128;
    cfg.logBytes = std::size_t{1} << 15;
    cfg.metrics = true;
    cfg.metricsInterval = nsToTicks(500000);
    cfg.faults.push_back({nsToTicks(1000000), 1,
                          service::ServiceFault::PowerCut, 0, 0});
    cfg.faults.push_back({nsToTicks(1600000), 2,
                          service::ServiceFault::MediaPoison, 0, 0});
    cfg.faults.push_back({nsToTicks(2200000), 0,
                          service::ServiceFault::MisspecStorm, 0, 0});
    return cfg;
}

} // namespace

TEST(Metrics, SamplerFiresOnCadenceAndTerminates)
{
    sim::EventQueue eq;
    int work = 0;
    MetricsRegistry reg;
    reg.addGauge("work", [&] { return static_cast<double>(work); });

    // 10 work events, 100ns apart; sampling every 250ns.
    for (int i = 1; i <= 10; ++i)
        eq.schedule(nsToTicks(100.0 * i), [&] { ++work; });
    MetricsSampler sampler(eq, reg, nsToTicks(250));
    sampler.start();
    eq.run();

    // Fires at 250/500/750/1000ns; the 1000ns firing sees the queue
    // drained and must not re-arm, so run() terminated.
    EXPECT_EQ(sampler.fired(), 4u);
    ASSERT_EQ(reg.numRows(), 4u);
    const MetricsSeries &s = reg.series();
    EXPECT_EQ(s.rows[0].at, nsToTicks(250));
    EXPECT_EQ(s.rows[0].values[0], 2.0);  // work at t=100,200
    EXPECT_EQ(s.rows[3].at, nsToTicks(1000));
    EXPECT_EQ(s.rows[3].values[0], 10.0);
}

TEST(Metrics, SumSeriesIsElementWiseWithRaggedRows)
{
    MetricsSeries a, b;
    a.columns = {"x", "y"};
    b.columns = {"x", "y"};
    a.rows.push_back({100, {1, 2}});
    a.rows.push_back({200, {3, 4}});
    b.rows.push_back({100, {10, 20}});
    // b has no second row (its domain drained early).
    const MetricsSeries sum = observe::sumSeries({a, b});
    ASSERT_EQ(sum.rows.size(), 2u);
    EXPECT_EQ(sum.rows[0].values[0], 11.0);
    EXPECT_EQ(sum.rows[0].values[1], 22.0);
    EXPECT_EQ(sum.rows[1].values[0], 3.0);
    EXPECT_EQ(sum.rows[1].values[1], 4.0);
    EXPECT_EQ(sum.rows[1].at, Tick{200});
}

TEST(Metrics, SeriesJsonKeepsIntegralsIntegral)
{
    MetricsSeries s;
    s.columns = {"n", "f"};
    s.rows.push_back({nsToTicks(1000), {42.0, 1.5}});
    const std::string text = s.toJson().dump();
    // 42 must serialize as an integer, 1.5 as a double, and the
    // timestamp lands in nanoseconds.
    EXPECT_NE(text.find("[1000,42,1.5]"), std::string::npos) << text;
}

TEST(SpecProfileTest, ExecutionsPartitionIntoCommitsAndAborts)
{
    SpecProfile p;
    const unsigned s = p.site("op");
    p.recordExecution(s);
    p.recordAbort(s, AbortCause::Misspec);
    p.recordExecution(s);
    p.recordCommit(s, 3, 2);
    const auto &site = p.siteInfo(s);
    EXPECT_EQ(site.executions, 2u);
    EXPECT_EQ(site.commits, 1u);
    EXPECT_EQ(site.abortsTotal(), 1u);
    EXPECT_EQ(site.executions, site.commits + site.abortsTotal());
    EXPECT_EQ(site.persists, 3u);
    EXPECT_EQ(site.dirtyBlocks, 2u);
}

TEST(SpecProfileTest, MergeFromMatchesSitesByName)
{
    SpecProfile a, b;
    const unsigned ra = a.site("read");
    a.site("update");
    const unsigned ub = b.site("update"); // different id order
    const unsigned rb = b.site("read");
    a.recordExecution(ra);
    a.recordCommit(ra, 1, 1);
    b.recordExecution(rb);
    b.recordAbort(rb, AbortCause::Media);
    b.recordExecution(ub);
    b.recordCommit(ub, 2, 2);

    a.mergeFrom(b);
    const auto &read = a.siteInfo(a.site("read"));
    EXPECT_EQ(read.executions, 2u);
    EXPECT_EQ(read.commits, 1u);
    EXPECT_EQ(read.abortsTotal(), 1u);
    const auto &update = a.siteInfo(a.site("update"));
    EXPECT_EQ(update.executions, 1u);
    EXPECT_EQ(update.persists, 2u);
}

TEST(SpecProfileTest, DisabledRecordsNothing)
{
    SpecProfile p;
    const unsigned s = p.site("op");
    p.setEnabled(false);
    p.recordExecution(s);
    p.recordCommit(s, 5, 5);
    EXPECT_EQ(p.siteInfo(s).executions, 0u);
    EXPECT_EQ(p.siteInfo(s).commits, 0u);
}

TEST(ServiceMetrics, ByteIdenticalAcrossSimThreads)
{
    ServiceConfig cfg = metricsConfig();
    cfg.simThreads = 1;
    Service st(cfg);
    const std::string stJson =
        st.run().toJson(cfg.duration).dump(2);

    cfg.simThreads = 4;
    Service mt(cfg);
    const std::string mtJson =
        mt.run().toJson(cfg.duration).dump(2);

    EXPECT_EQ(stJson, mtJson);
    // The metrics sections made it into the row.
    EXPECT_NE(stJson.find("\"metrics\""), std::string::npos);
    EXPECT_NE(stJson.find("pmemspec-profile-v1"), std::string::npos);
}

TEST(ServiceMetrics, SamplingObservesWithoutPerturbing)
{
    ServiceConfig on = metricsConfig();
    ServiceConfig off = metricsConfig();
    off.metrics = false;

    Service son(on);
    Json jon = son.run().toJson(on.duration);
    Service soff(off);
    const std::string offJson =
        soff.run().toJson(off.duration).dump(2);

    // Off: no metrics/profile keys at all.
    EXPECT_EQ(offJson.find("\"metrics\""), std::string::npos);
    EXPECT_EQ(offJson.find("\"profile\""), std::string::npos);

    // On minus its metrics sections must be bit-for-bit the off run:
    // the sampler reads simulated state, it never changes it.
    Json stripped = Json::object();
    for (const auto &[k, v] : jon.members()) {
        if (k != "metrics" && k != "profile")
            stripped.set(k, v);
    }
    EXPECT_EQ(stripped.dump(2), offJson);
}

TEST(ServiceMetrics, ProfileCountsCoverTheRun)
{
    ServiceConfig cfg = metricsConfig();
    Service svc(cfg);
    const ServiceResult res = svc.run();

    ASSERT_TRUE(res.metricsEnabled);
    ASSERT_EQ(res.shardSeries.size(), cfg.shards);
    EXPECT_FALSE(res.totalSeries.empty());
    // Shards share the sampling cadence, so the merged series has as
    // many rows as the longest-lived shard domain.
    std::size_t maxRows = 0;
    for (const auto &s : res.shardSeries)
        maxRows = std::max(maxRows, s.rows.size());
    EXPECT_EQ(res.totalSeries.rows.size(), maxRows);

    // Preload runs keySpace FASEs across the shards; every shard's
    // profile registers the same fixed site table.
    const SpecProfile &p = res.profile;
    ASSERT_EQ(p.numSites(), 6u);
    std::uint64_t preloads = p.siteInfo(0).commits;
    EXPECT_EQ(preloads, cfg.keySpace);
    // Every site's executions partition into commits + aborts.
    for (unsigned s = 0; s < p.numSites(); ++s) {
        const auto &site = p.siteInfo(s);
        EXPECT_EQ(site.executions, site.commits + site.abortsTotal())
            << "site " << site.name;
    }
    // The power cut and the storm left marks in the right buckets.
    std::uint64_t powerCuts = 0, misspecs = 0;
    for (unsigned s = 0; s < p.numSites(); ++s) {
        const auto &site = p.siteInfo(s);
        powerCuts += site.aborts[static_cast<std::size_t>(
            AbortCause::PowerCut)];
        misspecs += site.aborts[static_cast<std::size_t>(
            AbortCause::Misspec)];
    }
    EXPECT_GE(powerCuts, 1u);
    EXPECT_GE(misspecs, 1u);
}

TEST(MachineMetrics, CounterColumnsAreStatNames)
{
    // The machine's true gauges: no end-of-run stat backs them, so
    // they are the only columns allowed outside stats().flatten().
    const std::set<std::string> gauges = {
        "read_q", "write_q", "occupancy", "path_in_flight", "state",
        "in_fase"};
    for (auto design : persistency::allDesigns()) {
        SCOPED_TRACE(persistency::designName(design));
        workloads::WorkloadParams wp;
        wp.numThreads = 2;
        wp.opsPerThread = 40;
        wp.seed = 7;
        std::vector<cpu::Trace> traces;
        for (const auto &lt : workloads::generateTraces(
                 workloads::BenchId::Hashmap, wp))
            traces.push_back(persistency::lower(lt, design));
        cpu::MachineConfig mc = core::defaultMachineConfig(2);
        mc.design = design;
        mc.metrics.sample = true;
        mc.metrics.interval = nsToTicks(2000);
        cpu::Machine m(mc);
        m.setTraces(std::move(traces));
        m.run();

        std::map<std::string, double> stats;
        for (const StatValue &sv : m.stats().flatten())
            stats[sv.name] = sv.value;
        ASSERT_NE(m.metricsRegistry(), nullptr);
        const MetricsSeries &series = m.metricsRegistry()->series();
        ASSERT_FALSE(series.empty());
        const auto &last = series.rows.back().values;
        std::size_t counters = 0;
        for (std::size_t c = 0; c < series.columns.size(); ++c) {
            const std::string &col = series.columns[c];
            const auto it = stats.find(col);
            if (it == stats.end()) {
                // A gauge: a known local name under a stat group.
                const std::size_t dot = col.rfind('.');
                ASSERT_NE(dot, std::string::npos) << col;
                EXPECT_TRUE(gauges.count(col.substr(dot + 1)))
                    << col << " is neither a stat nor a known gauge";
                const std::string group = col.substr(0, dot + 1);
                EXPECT_TRUE(std::any_of(
                    stats.begin(), stats.end(), [&](const auto &kv) {
                        return kv.first.rfind(group, 0) == 0;
                    }))
                    << col << " is not under a stat group";
                continue;
            }
            ++counters;
            EXPECT_LE(last[c], it->second) << col;
        }
        EXPECT_NE(std::find(series.columns.begin(), series.columns.end(),
                            "machine.misspecInterrupts"),
                  series.columns.end());
        EXPECT_GE(counters, 4u); // 1 PMC, 2 core aborts, misspecs
    }
}

TEST(JsonParse, RoundTripsWriterOutput)
{
    ServiceConfig cfg = metricsConfig();
    cfg.duration = nsToTicks(2000000);
    cfg.faults.clear();
    Service svc(cfg);
    const Json doc = svc.run().toJson(cfg.duration);
    const std::string text = doc.dump(2);

    std::string err;
    const Json parsed = Json::parse(text, &err);
    EXPECT_TRUE(err.empty()) << err;
    // parse() keeps unsigned integrals integral, so re-dumping
    // reproduces the writer's bytes exactly.
    EXPECT_EQ(parsed.dump(2), text);
}

TEST(JsonParse, RejectsMalformedInput)
{
    std::string err;
    EXPECT_TRUE(Json::parse("{\"a\": }", &err).isNull());
    EXPECT_FALSE(err.empty());
    err.clear();
    EXPECT_TRUE(Json::parse("[1, 2", &err).isNull());
    EXPECT_FALSE(err.empty());
    // Escapes and nested containers parse.
    const Json ok = Json::parse("{\"s\": \"a\\n\\u0041\", "
                                "\"v\": [1, -2.5, true, null]}", &err);
    ASSERT_FALSE(ok.isNull());
    EXPECT_EQ(ok.find("s")->str(), "a\nA");
    EXPECT_EQ(ok.find("v")->at(1).number(), -2.5);
}

TEST(QuantileRankTest, NearestRankEdges)
{
    EXPECT_EQ(quantileRank(0.5, 0), 0u);
    EXPECT_EQ(quantileRank(0.0, 10), 1u);
    EXPECT_EQ(quantileRank(1.0, 10), 10u);
    EXPECT_EQ(quantileRank(0.5, 10), 5u);
    EXPECT_EQ(quantileRank(0.99, 10), 10u);
    EXPECT_EQ(quantileRank(-1.0, 10), 1u);  // clamped
    EXPECT_EQ(quantileRank(2.0, 10), 10u);  // clamped
}

TEST(QuantileRankTest, HistogramAndServiceAgreeOnTheRank)
{
    // 1..100 in a unit-bucket histogram vs the sorted-vector rank:
    // both use quantileRank, so the p99 must be the same element.
    Histogram h(1.0, 101.0, 100);
    ServiceResult res;
    for (std::uint64_t v = 1; v <= 100; ++v) {
        h.sample(v);
        res.latencies.push_back(v);
    }
    const std::uint64_t rank = quantileRank(0.99, 100);
    EXPECT_EQ(rank, 99u);
    EXPECT_EQ(res.latencyQuantile(0.99), Tick{99});
    EXPECT_NEAR(h.quantile(0.99), 99.0, 1.0);
}

namespace
{

bool
isContainer(const Json &j)
{
    return j.type() == Json::Type::Array || j.type() == Json::Type::Object;
}

/** Copy of `j` with its `target`-th array or object in pre-order (0 =
 *  `j` itself) replaced by a value of another shape; `seen` counts
 *  the containers passed. Leaves are left alone: pm_top reads every
 *  scalar through number()/str(), which accept any type. */
Json
retype(const Json &j, std::uint64_t target, std::uint64_t &seen, Rng &rng)
{
    if (!isContainer(j))
        return j;
    if (seen++ == target) {
        switch (rng.below(6)) {
        case 0:
            return Json();
        case 1:
            return Json("x");
        case 2:
            return Json(-1.5);
        case 3:
            return Json::array();
        case 4: {
            Json a = Json::array();
            a.push(Json::array());
            return a;
        }
        default:
            return Json::object();
        }
    }
    if (j.type() == Json::Type::Array) {
        Json a = Json::array();
        for (std::size_t i = 0; i < j.size(); ++i)
            a.push(retype(j.at(i), target, seen, rng));
        return a;
    }
    Json o = Json::object();
    for (const auto &[k, v] : j.members())
        o.set(k, retype(v, target, seen, rng));
    return o;
}

/** Arrays and objects in `j`, itself included. */
std::uint64_t
countContainers(const Json &j)
{
    if (!isContainer(j))
        return 0;
    std::uint64_t n = 1;
    for (std::size_t i = 0; j.type() == Json::Type::Array && i < j.size();
         ++i)
        n += countContainers(j.at(i));
    for (const auto &[k, v] : j.members())
        n += countContainers(v);
    return n;
}

/** Run pm_top on `args` with its output discarded; the raw wait
 *  status. */
int
runPmTop(const std::vector<std::string> &args)
{
    const pid_t pid = fork();
    if (pid == 0) {
        const int null = open("/dev/null", O_WRONLY);
        dup2(null, STDOUT_FILENO);
        dup2(null, STDERR_FILENO);
        std::vector<char *> argv{const_cast<char *>(PMEMSPEC_PM_TOP)};
        for (const auto &a : args)
            argv.push_back(const_cast<char *>(a.c_str()));
        argv.push_back(nullptr);
        execv(PMEMSPEC_PM_TOP, argv.data());
        _exit(127);
    }
    int status = 0;
    waitpid(pid, &status, 0);
    return status;
}

} // namespace

// pm_top's hostile-input contract, end to end: seeded
// truncations, bit flips, byte overwrites and node retypings of a
// real ycsb_service --metrics envelope, each rendered alone and
// diffed against the clean envelope, must exit 0 or 1 -- never die
// on a signal (an uncaught exception aborts) or any other code.
TEST(PmTopFuzz, EveryMutantRendersOrExitsOne)
{
    const ServiceConfig cfg = metricsConfig();
    Service svc(cfg);
    core::ResultSink sink("ycsb_service");
    sink.addRow("service", svc.run().toJson(cfg.duration));
    const Json envelope = sink.toJson();
    const std::string clean = envelope.dump(2);
    const std::uint64_t containers = countContainers(envelope);

    const std::string stem =
        ::testing::TempDir() + "pm_top_fuzz_" + std::to_string(getpid());
    const std::string cleanPath = stem + "_clean.json";
    const std::string mutantPath = stem + "_mutant.json";
    std::ofstream(cleanPath) << clean;
    ASSERT_EQ(runPmTop({cleanPath}), 0) << "the clean envelope must render";

    constexpr std::uint64_t seed = 2026;
    constexpr std::size_t rounds = 300;
    Rng rng(seed);
    std::size_t rendered = 0, refused = 0, kinds[4] = {};
    for (std::size_t round = 0; round < rounds; ++round) {
        std::string bytes = clean;
        const auto kind = rng.below(4);
        ++kinds[kind];
        switch (kind) {
        case 0:
            bytes.resize(rng.below(clean.size()));
            break;
        case 1:
            for (std::uint64_t i = 0, n = 1 + rng.below(4); i < n; ++i)
                bytes[rng.below(bytes.size())] ^=
                    static_cast<char>(1u << rng.below(8));
            break;
        case 2:
            for (std::uint64_t i = 0, n = 1 + rng.below(4); i < n; ++i)
                bytes[rng.below(bytes.size())] =
                    static_cast<char>(rng.below(256));
            break;
        default: {
            std::uint64_t seen = 0;
            bytes =
                retype(envelope, 1 + rng.below(containers - 1), seen, rng)
                    .dump(2);
            break;
        }
        }
        std::ofstream(mutantPath, std::ios::trunc) << bytes;
        std::vector<std::string> args{mutantPath};
        if (round % 2)
            args.push_back(cleanPath);
        const int status = runPmTop(args);
        ASSERT_TRUE(WIFEXITED(status))
            << "round " << round << " (seed " << seed << ", kind " << kind
            << "): pm_top died on signal " << WTERMSIG(status);
        const int code = WEXITSTATUS(status);
        ASSERT_TRUE(code == 0 || code == 1)
            << "round " << round << " (seed " << seed << ", kind " << kind
            << "): pm_top exited " << code;
        ++(code == 0 ? rendered : refused);
    }
    for (std::size_t k : kinds)
        EXPECT_GE(k, 1u);
    EXPECT_GE(rendered, 1u);
    EXPECT_GE(refused, 1u);
    std::remove(cleanPath.c_str());
    std::remove(mutantPath.c_str());
}
