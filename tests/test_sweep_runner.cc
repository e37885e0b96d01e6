/**
 * @file
 * The sweep determinism oracle: a parallel sweep must be
 * indistinguishable from a serial one. Byte-identical serialized
 * results, submission-order preservation, error isolation, and jobs
 * clamping. This test is also the payload of the ThreadSanitizer CI
 * job — any shared mutable state reachable from a run shows up here
 * as a race.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <thread>

#include "core/sweep.hh"

using namespace pmemspec;
using namespace pmemspec::core;
using persistency::Design;
using workloads::BenchId;

namespace
{

std::vector<SweepPoint>
tinyMatrix()
{
    std::vector<SweepPoint> points;
    for (auto b : {BenchId::ArraySwaps, BenchId::Queue,
                   BenchId::Hashmap}) {
        for (Design d : {Design::IntelX86, Design::PmemSpec}) {
            SweepPoint p;
            p.id = std::string(workloads::benchName(b)) + "/" +
                   persistency::designName(d);
            p.cfg.withBench(b)
                .withDesign(d)
                .withMachine(defaultMachineConfig(2))
                .withThreads(2)
                .withOps(8)
                .withSeed(3);
            points.push_back(std::move(p));
        }
    }
    return points;
}

std::string
serialize(const std::vector<SweepResult> &results)
{
    ResultSink sink("determinism-oracle");
    sink.addPoints(results);
    return sink.toJson().dump(2);
}

} // namespace

TEST(SweepRunner, JobsClamping)
{
    EXPECT_GE(SweepRunner(0).jobs(), 1u); // hw_concurrency, >= 1
    EXPECT_EQ(SweepRunner(1).jobs(), 1u);
    EXPECT_EQ(SweepRunner(3).jobs(), 3u);
    EXPECT_EQ(SweepRunner(100000).jobs(), sim::DomainPool::maxThreads);
}

TEST(SweepRunner, ParallelMatchesSerialByteForByte)
{
    const auto points = tinyMatrix();
    const auto serial = SweepRunner(1).run(points);
    const auto parallel = SweepRunner(4).run(points);

    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].id, parallel[i].id);
        EXPECT_EQ(serial[i].result.run.simTicks,
                  parallel[i].result.run.simTicks)
            << serial[i].id;
        EXPECT_EQ(serial[i].result.run.fases,
                  parallel[i].result.run.fases);
    }
    // The full serialized artifacts (results + stats snapshots) are
    // byte-identical — the --jobs N invariant of every bench binary.
    EXPECT_EQ(serialize(serial), serialize(parallel));
}

TEST(SweepRunner, ResultsComeBackInSubmissionOrder)
{
    // Task i sleeps inversely to its index, so completion order is
    // roughly the reverse of submission order under parallelism.
    SweepRunner runner(4);
    const std::size_t n = 8;
    std::vector<int> filled(n, -1);
    runner.forEach(n, [&](std::size_t i) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds((n - i) * 3));
        filled[i] = static_cast<int>(i);
    });
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(filled[i], static_cast<int>(i));

    const auto points = tinyMatrix();
    const auto results = runner.run(points);
    ASSERT_EQ(results.size(), points.size());
    for (std::size_t i = 0; i < points.size(); ++i)
        EXPECT_EQ(results[i].id, points[i].id);
}

TEST(SweepRunner, ExceptionDoesNotPoisonThePool)
{
    SweepRunner runner(4);
    const std::size_t n = 16;
    std::atomic<unsigned> ran{0};
    std::vector<std::string> errors;
    runner.forEach(n,
                   [&](std::size_t i) {
                       if (i == 3)
                           throw std::runtime_error("point 3 is bad");
                       ++ran;
                   },
                   &errors);
    ASSERT_EQ(errors.size(), n);
    EXPECT_EQ(errors[3], "point 3 is bad");
    for (std::size_t i = 0; i < n; ++i) {
        if (i != 3) {
            EXPECT_TRUE(errors[i].empty()) << i;
        }
    }
    EXPECT_EQ(ran.load(), n - 1);
}

TEST(SweepRunner, ForEachRethrowsFirstErrorWithoutErrorsVector)
{
    SweepRunner runner(2);
    std::atomic<unsigned> ran{0};
    try {
        runner.forEach(6, [&](std::size_t i) {
            if (i == 1 || i == 4)
                throw std::runtime_error("boom " +
                                         std::to_string(i));
            ++ran;
        });
        FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error &e) {
        // The lowest failing index wins deterministically, and the
        // remaining tasks still ran before the rethrow.
        EXPECT_STREQ(e.what(), "domain 1: boom 1");
    }
    EXPECT_EQ(ran.load(), 4u);
}

TEST(SweepRunner, FailedExperimentPointIsCapturedNotFatal)
{
    // An id-tagged point whose run throws must come back as a
    // SweepResult error while its siblings complete.
    auto points = tinyMatrix();
    const auto results = SweepRunner(2).run(points);
    for (const auto &r : results)
        EXPECT_TRUE(r.ok()) << r.id << ": " << r.error;
}

TEST(SweepRunner, NormalizedSweepIsIndependentOfJobs)
{
    const auto machine = defaultMachineConfig(2);
    workloads::WorkloadParams p;
    p.numThreads = 2;
    p.opsPerThread = 8;

    const std::vector<BenchId> benches = {BenchId::ArraySwaps,
                                          BenchId::Queue};
    const auto serial =
        runNormalizedSweep(benches, machine, p, SweepRunner(1));
    const auto parallel =
        runNormalizedSweep(benches, machine, p, SweepRunner(4));
    ASSERT_EQ(serial.size(), 2u);
    ASSERT_EQ(parallel.size(), 2u);
    for (std::size_t i = 0; i < benches.size(); ++i) {
        EXPECT_EQ(parallel[i].bench, benches[i]);
        for (auto d : serial[i].designs) {
            EXPECT_EQ(parallel[i].throughput.at(d),
                      serial[i].throughput.at(d))
                << workloads::benchName(benches[i]);
            EXPECT_EQ(parallel[i].normalized.at(d),
                      serial[i].normalized.at(d))
                << workloads::benchName(benches[i]);
        }
    }
}

TEST(ResultSink, JsonEnvelopeGoldenKeys)
{
    const auto points = tinyMatrix();
    const auto results = SweepRunner(2).run(points);

    ResultSink sink("fig_test");
    sink.setMeta("ops_per_thread", Json(std::uint64_t{8}));
    sink.addPoints(results);
    Json row = Json::object();
    row.set("benchmark", Json("ArraySwaps"));
    row.set("PMEM-Spec", Json(1.25));
    sink.addRow("normalized", std::move(row));

    const Json root = sink.toJson();
    ASSERT_NE(root.find("schema"), nullptr);
    EXPECT_EQ(root.find("schema")->str(), "pmemspec-bench-v1");
    EXPECT_EQ(root.find("figure")->str(), "fig_test");
    ASSERT_NE(root.find("meta"), nullptr);
    EXPECT_EQ(root.find("meta")->find("ops_per_thread")->uintValue(),
              8u);

    const Json *pts = root.find("points");
    ASSERT_NE(pts, nullptr);
    ASSERT_EQ(pts->size(), points.size());
    const Json &p0 = pts->at(0);
    for (const char *key :
         {"id", "bench", "design", "cores", "ops_per_thread", "seed",
          "throughput", "sim_ticks", "fases", "instructions",
          "load_misspecs", "store_misspecs", "aborts",
          "spec_buf_full_pauses", "cross_pmc_reorder_hazards",
          "stats"}) {
        EXPECT_NE(p0.find(key), nullptr) << key;
    }
    EXPECT_GT(p0.find("stats")->size(), 0u);

    const Json *tables = root.find("tables");
    ASSERT_NE(tables, nullptr);
    const Json *norm = tables->find("normalized");
    ASSERT_NE(norm, nullptr);
    ASSERT_EQ(norm->size(), 1u);
    EXPECT_EQ(norm->at(0).find("benchmark")->str(), "ArraySwaps");

    // Round-trip stability: serializing the same results twice gives
    // the same bytes.
    EXPECT_EQ(sink.toJson().dump(2), sink.toJson().dump(2));
}

TEST(ResultSink, WriteFileAndEmptyPathNoop)
{
    ResultSink sink("smoke");
    EXPECT_TRUE(sink.writeFile(""));

    const std::string path =
        ::testing::TempDir() + "/pmemspec_sink_test.json";
    ASSERT_TRUE(sink.writeFile(path));
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::string content((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
    EXPECT_NE(content.find("\"schema\": \"pmemspec-bench-v1\""),
              std::string::npos);
    EXPECT_NE(content.find("\"figure\": \"smoke\""),
              std::string::npos);
    std::remove(path.c_str());
}
