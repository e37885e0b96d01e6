/**
 * @file
 * Machine-level integration tests: multi-core determinism, the
 * spec-buffer pause, and misspeculation-driven rollback.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

#include "core/experiment.hh"
#include "cpu/machine.hh"

using namespace pmemspec;
using cpu::Machine;
using cpu::MachineConfig;
using cpu::Trace;
using cpu::TraceOp;
using persistency::Design;

namespace
{

MachineConfig
config(Design d, unsigned cores)
{
    MachineConfig m;
    m.design = d;
    m.mem.numCores = cores;
    return m;
}

Trace
simpleFase(Addr base, int stores)
{
    Trace t;
    t.push_back({TraceOp::FaseBegin, 0});
    for (int i = 0; i < stores; ++i)
        t.push_back({TraceOp::Store, base + static_cast<Addr>(i) * 8});
    t.push_back({TraceOp::SpecBarrier, 0});
    t.push_back({TraceOp::FaseEnd, 0});
    return t;
}

} // namespace

TEST(Machine, RunsMultipleCoresToCompletion)
{
    Machine m(config(Design::PmemSpec, 4));
    std::vector<Trace> traces;
    for (unsigned c = 0; c < 4; ++c)
        traces.push_back(simpleFase(0x10000 + c * 0x1000, 8));
    m.setTraces(std::move(traces));
    auto r = m.run();
    EXPECT_EQ(r.fases, 4u);
    EXPECT_GT(r.simTicks, 0u);
}

TEST(Machine, DeterministicAcrossRuns)
{
    Tick first = 0;
    for (int rep = 0; rep < 3; ++rep) {
        Machine m(config(Design::HOPS, 2));
        std::vector<Trace> traces;
        traces.push_back(simpleFase(0x10000, 4));
        traces.push_back(simpleFase(0x20000, 4));
        // HOPS traces use dfence, not spec-barrier; patch them.
        for (auto &t : traces)
            for (auto &i : t)
                if (i.op == TraceOp::SpecBarrier)
                    i.op = TraceOp::Dfence;
        m.setTraces(std::move(traces));
        auto r = m.run();
        if (rep == 0)
            first = r.simTicks;
        else
            EXPECT_EQ(r.simTicks, first);
    }
}

TEST(Machine, WrongTraceCountIsFatal)
{
    Machine m(config(Design::IntelX86, 2));
    std::vector<Trace> traces(1);
    EXPECT_DEATH(m.setTraces(std::move(traces)), "traces for");
}

TEST(Machine, SpecBufferOverflowPausesButCompletes)
{
    MachineConfig cfg = config(Design::PmemSpec, 2);
    cfg.mem.specBufferEntries = 1;
    cfg.mem.l1Bytes = 1024;     // 16 blocks
    cfg.mem.llcBytes = 2048;    // 32 blocks: heavy dirty eviction
    Machine m(cfg);
    std::vector<Trace> traces;
    for (unsigned c = 0; c < 2; ++c) {
        Trace t;
        t.push_back({TraceOp::FaseBegin, 0});
        for (int i = 0; i < 256; ++i)
            t.push_back({TraceOp::Store,
                         0x10000 + c * 0x100000 +
                             static_cast<Addr>(i) * 64});
        t.push_back({TraceOp::SpecBarrier, 0});
        t.push_back({TraceOp::FaseEnd, 0});
        traces.push_back(std::move(t));
    }
    m.setTraces(std::move(traces));
    auto r = m.run();
    EXPECT_EQ(r.fases, 2u);
    EXPECT_GT(r.specBufFullPauses, 0u);
}

TEST(Machine, MisspecInterruptAbortsAndReexecutesFases)
{
    // Drive the speculation machinery directly: mid-run, fire the
    // misspec callback and observe the rollback re-execute the FASE.
    MachineConfig cfg = config(Design::PmemSpec, 1);
    cfg.misspecInterruptLatency = nsToTicks(50);
    cfg.abortHandlerLatency = nsToTicks(50);
    Machine m(cfg);
    Trace t = simpleFase(0x10000, 4);
    std::vector<Trace> traces{t};
    m.setTraces(std::move(traces));
    // Inject a virtual power failure shortly after the run starts.
    auto &sb = m.memory().pmc().specBuffer();
    m.eventQueue().schedule(After{nsToTicks(1)}, [&] {
        sb.reportStoreMisspec(0x10000);
    });
    auto r = m.run();
    EXPECT_EQ(r.fases, 1u);      // still commits exactly once
    EXPECT_EQ(r.aborts, 1u);     // after one rollback
    EXPECT_EQ(r.storeMisspecs, 1u);
    // The rollback charged interrupt + abort-handler latency.
    EXPECT_GE(r.simTicks, m.config().misspecInterruptLatency +
                              m.config().abortHandlerLatency);
}

TEST(Machine, MisspecOutsideFaseIsHarmless)
{
    Machine m(config(Design::PmemSpec, 1));
    Trace t;
    t.push_back({TraceOp::Compute, 10000}); // not inside any FASE
    std::vector<Trace> traces{std::move(t)};
    m.setTraces(std::move(traces));
    m.eventQueue().schedule(After{nsToTicks(1)}, [&] {
        m.memory().pmc().specBuffer().reportStoreMisspec(0x10000);
    });
    auto r = m.run();
    EXPECT_EQ(r.aborts, 0u);
}

TEST(Machine, RollbackReleasesAndReacquiresLocks)
{
    Machine m(config(Design::PmemSpec, 2));
    Trace t;
    t.push_back({TraceOp::FaseBegin, 0});
    t.push_back({TraceOp::LockAcq, 1});
    t.push_back({TraceOp::SpecAssign, 0});
    t.push_back({TraceOp::Store, 0x10000});
    t.push_back({TraceOp::Compute, 4000});
    t.push_back({TraceOp::SpecBarrier, 0});
    t.push_back({TraceOp::FaseEnd, 0});
    t.push_back({TraceOp::SpecRevoke, 0});
    t.push_back({TraceOp::LockRel, 1});
    std::vector<Trace> traces{t, t};
    m.setTraces(std::move(traces));
    m.eventQueue().schedule(After{nsToTicks(100)}, [&] {
        m.memory().pmc().specBuffer().reportStoreMisspec(0x10000);
    });
    auto r = m.run();
    // Both cores complete their FASE despite the rollback (the lock
    // was released by the abort handler and reacquired on retry).
    EXPECT_EQ(r.fases, 2u);
    EXPECT_GE(r.aborts, 1u);
}

TEST(Machine, ThroughputMetricIsConsistent)
{
    Machine m(config(Design::IntelX86, 1));
    Trace t;
    for (int f = 0; f < 10; ++f) {
        t.push_back({TraceOp::FaseBegin, 0});
        t.push_back({TraceOp::Compute, 200});
        t.push_back({TraceOp::FaseEnd, 0});
    }
    std::vector<Trace> traces{std::move(t)};
    m.setTraces(std::move(traces));
    auto r = m.run();
    EXPECT_EQ(r.fases, 10u);
    // 10 FASEs of 100ns each -> 10M FASEs/s.
    EXPECT_NEAR(r.throughput(), 1e7, 1e6);
}

namespace
{

/** FNV-1a over every flattened stat: its name and its value's bits. */
std::uint64_t
statsDigest(const std::vector<StatValue> &stats)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](const void *p, std::size_t n) {
        const auto *b = static_cast<const unsigned char *>(p);
        for (std::size_t i = 0; i < n; ++i) {
            h ^= b[i];
            h *= 0x100000001b3ull;
        }
    };
    for (const StatValue &s : stats) {
        mix(s.name.data(), s.name.size());
        std::uint64_t bits;
        std::memcpy(&bits, &s.value, sizeof(bits));
        mix(&bits, sizeof(bits));
    }
    return h;
}

struct ExactRun
{
    workloads::BenchId bench;
    Design design;
    unsigned cores;
    std::uint64_t events;
    std::uint64_t fases;
    Tick simTicks;
    std::uint64_t statsFnv;
};

} // namespace

TEST(Machine, ExactOutputMatchesGoldens)
{
    // The timing machine's exact output for each design on two
    // benchmarks, taken before the event kernel, the FIFO rings and
    // the continuation moves were last reworked. Any change to event
    // order moves at least one of these counts; a change that moves
    // them on purpose must say why.
    using workloads::BenchId;
    const ExactRun goldens[] = {
        {BenchId::Queue, Design::IntelX86, 2,
         8849, 100, 18730000, 0x0b4f6640d62e76f9},
        {BenchId::Queue, Design::DPO, 2,
         10883, 100, 20910500, 0x9d7b0907b1055d9f},
        {BenchId::Queue, Design::HOPS, 2,
         9482, 100, 16041000, 0xfd9ae15e5cbf0a1c},
        {BenchId::Queue, Design::PmemSpec, 2,
         10676, 100, 15465000, 0xb2fa421caadfddca},
        {BenchId::Tpcc, Design::IntelX86, 4,
         298420, 200, 231748500, 0x474e0e9cf24794e4},
        {BenchId::Tpcc, Design::DPO, 4,
         333670, 200, 273750000, 0x94bb33a470dd5dd8},
        {BenchId::Tpcc, Design::HOPS, 4,
         249501, 200, 177994000, 0x408815ad81fe7c6f},
        {BenchId::Tpcc, Design::PmemSpec, 4,
         304649, 200, 177161000, 0xb84bb774bc366a50},
    };
    for (const ExactRun &g : goldens) {
        core::ExperimentConfig cfg;
        cfg.bench = g.bench;
        cfg.design = g.design;
        cfg.workload.numThreads = g.cores;
        cfg.workload.opsPerThread = 50;
        cfg.workload.seed = 3;
        cfg.machine = core::defaultMachineConfig(g.cores);
        const auto res = core::runExperiment(cfg);
        const std::uint64_t fnv = statsDigest(res.stats);
        SCOPED_TRACE(testing::Message()
                     << workloads::benchName(g.bench) << " / "
                     << persistency::designName(g.design) << ": got {"
                     << res.run.events << ", " << res.run.fases << ", "
                     << res.run.simTicks << ", 0x" << std::hex << fnv
                     << "}");
        EXPECT_EQ(res.run.events, g.events);
        EXPECT_EQ(res.run.fases, g.fases);
        EXPECT_EQ(res.run.simTicks, g.simTicks);
        EXPECT_EQ(fnv, g.statsFnv);
    }
}
