/**
 * @file
 * End-to-end experiment tests: tiny runs of every benchmark on every
 * design must complete, count the right number of FASEs, and show
 * zero natural misspeculation (Section 8.4).
 */

#include <gtest/gtest.h>

#include <sstream>

#include "core/experiment.hh"
#include "core/sweep.hh"

using namespace pmemspec;
using namespace pmemspec::core;
using persistency::Design;
using workloads::BenchId;

namespace
{

ExperimentConfig
tiny(BenchId b, Design d)
{
    ExperimentConfig cfg;
    cfg.bench = b;
    cfg.design = d;
    cfg.workload.numThreads = 2;
    cfg.workload.opsPerThread = 10;
    cfg.workload.seed = 7;
    cfg.machine = defaultMachineConfig(2);
    return cfg;
}

} // namespace

using BenchDesign = std::tuple<BenchId, Design>;

class Matrix : public ::testing::TestWithParam<BenchDesign>
{
};

TEST_P(Matrix, RunsAndCommitsAllFases)
{
    auto [bench, design] = GetParam();
    auto res = runExperiment(tiny(bench, design));
    EXPECT_EQ(res.run.fases, 20u); // 2 threads x 10 ops
    EXPECT_GT(res.throughput, 0.0);
    EXPECT_EQ(res.run.aborts, 0u);
}

TEST_P(Matrix, NoNaturalMisspeculation)
{
    // Section 8.4: "In our evaluation, PMEM-Spec never experienced
    // misspeculation."
    auto [bench, design] = GetParam();
    if (design != Design::PmemSpec)
        GTEST_SKIP();
    auto res = runExperiment(tiny(bench, design));
    EXPECT_EQ(res.run.loadMisspecs, 0u);
    EXPECT_EQ(res.run.storeMisspecs, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllPairs, Matrix,
    ::testing::Combine(::testing::ValuesIn(workloads::allBenchmarks()),
                       ::testing::Values(Design::IntelX86, Design::DPO,
                                         Design::HOPS,
                                         Design::PmemSpec)),
    [](const ::testing::TestParamInfo<BenchDesign> &info) {
        std::string n =
            std::string(workloads::benchName(std::get<0>(info.param))) +
            "_" + persistency::designName(std::get<1>(info.param));
        for (auto &c : n)
            if (!isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return n;
    });

TEST(Experiment, NormalizedBaselineIsOne)
{
    workloads::WorkloadParams p;
    p.numThreads = 2;
    p.opsPerThread = 20;
    const auto row = runNormalizedSweep({BenchId::ArraySwaps},
                                        defaultMachineConfig(2), p,
                                        SweepRunner(1))[0];
    EXPECT_EQ(row.bench, BenchId::ArraySwaps);
    EXPECT_EQ(row.baseline, Design::IntelX86);
    EXPECT_EQ(row.designs, persistency::allDesigns());
    EXPECT_DOUBLE_EQ(row.normalized[Design::IntelX86], 1.0);
    for (Design d : row.designs) {
        const double v = row.normalized.at(d);
        EXPECT_GT(v, 0.1) << persistency::designName(d);
        EXPECT_LT(v, 10.0);
        // The raw throughputs back out of the normalised values.
        EXPECT_DOUBLE_EQ(
            v, row.throughput.at(d) /
                   row.throughput.at(Design::IntelX86));
    }
}

TEST(Experiment, NormalizedSubsetAlwaysMeasuresBaseline)
{
    workloads::WorkloadParams p;
    p.numThreads = 2;
    p.opsPerThread = 10;
    const auto row =
        runNormalizedSweep({BenchId::Queue}, defaultMachineConfig(2), p,
                           SweepRunner(1), {Design::HOPS})[0];
    // Requested columns only...
    ASSERT_EQ(row.designs.size(), 1u);
    EXPECT_EQ(row.designs[0], Design::HOPS);
    // ...but the baseline was still run to normalise against.
    EXPECT_GT(row.throughput.at(Design::IntelX86), 0.0);
    EXPECT_GT(row.normalized.at(Design::HOPS), 0.0);
}

TEST(Experiment, ConfigSetterChaining)
{
    auto cfg = ExperimentConfig()
                   .withBench(BenchId::Tpcc)
                   .withDesign(Design::HOPS)
                   .withMachine(defaultMachineConfig(4))
                   .withThreads(4)
                   .withOps(123)
                   .withSeed(9);
    EXPECT_EQ(cfg.bench, BenchId::Tpcc);
    EXPECT_EQ(cfg.design, Design::HOPS);
    EXPECT_EQ(cfg.machine.mem.numCores, 4u);
    EXPECT_EQ(cfg.workload.numThreads, 4u);
    EXPECT_EQ(cfg.workload.opsPerThread, 123u);
    EXPECT_EQ(cfg.workload.seed, 9u);
}

TEST(Experiment, ResultCarriesStatsSnapshot)
{
    auto res = runExperiment(tiny(BenchId::ArraySwaps,
                                  Design::PmemSpec));
    ASSERT_FALSE(res.stats.empty());
    // The machine root stat is always registered.
    bool found = false;
    for (const auto &sv : res.stats)
        if (sv.name == "machine.misspecInterrupts")
            found = true;
    EXPECT_TRUE(found);
    EXPECT_DOUBLE_EQ(res.statOr("machine.misspecInterrupts", -1), 0);
    EXPECT_DOUBLE_EQ(res.statOr("no.such.stat", -7), -7);
}

// IntelX86 has no persist path: every write the PMC makes wait is a
// writeback (LLC eviction or CLWB), and each is refused exactly once,
// because the retiring write that admits it frees its slot. TPC-C is
// the benchmark that fills the write queue.
TEST(Experiment, IntelWritebackWaitsAreCountedAsRefusals)
{
    ExperimentConfig cfg = tiny(BenchId::Tpcc, Design::IntelX86);
    cfg.workload.numThreads = 8;
    cfg.workload.opsPerThread = 40;
    cfg.machine = defaultMachineConfig(8);
    const auto res = runExperiment(cfg);
    const double refused =
        res.statOr("machine.memsys.pmc.writeBacksRefused", -1);
    EXPECT_GT(refused, 0);
    EXPECT_DOUBLE_EQ(
        refused, res.statOr("machine.memsys.pmc.admissionWait.samples", -2));
    EXPECT_DOUBLE_EQ(res.statOr("machine.memsys.pmc.persistsRefused", -1),
                     0);
}

TEST(Experiment, DeterministicThroughput)
{
    auto a = runExperiment(tiny(BenchId::Queue, Design::PmemSpec));
    auto b = runExperiment(tiny(BenchId::Queue, Design::PmemSpec));
    EXPECT_EQ(a.run.simTicks, b.run.simTicks);
}

TEST(Experiment, DefaultConfigMatchesTable3)
{
    auto cfg = defaultMachineConfig(8);
    EXPECT_EQ(cfg.mem.numCores, 8u);
    EXPECT_EQ(cfg.core.sqEntries, 32u);
    EXPECT_DOUBLE_EQ(cfg.core.freqGhz, 2.0);
    EXPECT_EQ(cfg.mem.l1Bytes, 64u * 1024);
    EXPECT_EQ(cfg.mem.l1Ways, 4u);
    EXPECT_EQ(cfg.mem.l1HitLatency, nsToTicks(2));
    EXPECT_EQ(cfg.mem.llcBytes, 16u * 1024 * 1024);
    EXPECT_EQ(cfg.mem.llcWays, 16u);
    EXPECT_EQ(cfg.mem.llcHitLatency, nsToTicks(20));
    EXPECT_EQ(cfg.mem.pmReadLatency, nsToTicks(175));
    EXPECT_EQ(cfg.mem.pmWriteLatency, nsToTicks(94));
    EXPECT_EQ(cfg.mem.pmcReadQueue, 32u);
    EXPECT_EQ(cfg.mem.pmcWriteQueue, 64u);
    EXPECT_EQ(cfg.mem.specBufferEntries, 4u);
    EXPECT_EQ(cfg.mem.persistPathLatency, nsToTicks(20));
    // Ring bus: window = cores x idle path latency = 160ns.
    EXPECT_EQ(cfg.mem.effectiveSpecWindow(), nsToTicks(160));
}

TEST(Experiment, PrintConfigMentionsKeyParameters)
{
    std::ostringstream os;
    printConfig(os, defaultMachineConfig(8));
    const std::string out = os.str();
    EXPECT_NE(out.find("175"), std::string::npos);
    EXPECT_NE(out.find("94"), std::string::npos);
    EXPECT_NE(out.find("16MB"), std::string::npos);
    EXPECT_NE(out.find("speculation"), std::string::npos);
}
