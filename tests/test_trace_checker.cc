/**
 * @file
 * The offline trace checker as an oracle: over fault-injection
 * campaigns with known-violating plans (under both the Lazy and the
 * Eager recovery policy), over a benign reorder, over a
 * deliberately tampered stream, and over a full timing-machine run
 * that provokes a genuine load misspeculation. In every intact stream
 * the independently re-derived verdicts must agree exactly with what
 * the hardware detector reported.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "common/crc32.hh"
#include "cpu/machine.hh"
#include "faultinject/fault_injector.hh"
#include "faultinject/fault_plan.hh"
#include "observe/binary_log.hh"
#include "observe/trace_checker.hh"
#include "observe/trace_export.hh"
#include "runtime/fase_runtime.hh"
#include "runtime/persistent_memory.hh"
#include "runtime/virtual_os.hh"

using namespace pmemspec;
using faultinject::AddrTouchPlan;
using faultinject::FaultInjector;
using faultinject::FaultKind;
using faultinject::NthAccessPlan;
using observe::CheckResult;
using runtime::FaseRuntime;
using runtime::PersistentMemory;
using runtime::RecoveryPolicy;
using runtime::Transaction;
using runtime::VirtualOs;
using trace::EventKind;

namespace
{

trace::Config
checkerTraceConfig()
{
    trace::Config cfg;
    cfg.flags = trace::FlagSpecBuffer | trace::FlagPmController |
                trace::FlagFaultInject;
    return cfg;
}

/** Functional-layer harness with the recorder wired in. */
struct Harness
{
    PersistentMemory pm{1 << 20};
    VirtualOs os;
    FaseRuntime rt;
    FaultInjector inj;
    trace::Manager mgr;
    Addr data;

    explicit Harness(trace::Config tcfg = checkerTraceConfig(),
                     RecoveryPolicy policy = RecoveryPolicy::Lazy)
        : rt(pm, os, 1, policy), inj(pm, os),
          mgr(tcfg, 0), data(pm.alloc(256, 64))
    {
        for (Addr a = data; a < data + 256; a += 8)
            pm.writeU64(a, 1);
        pm.persistAll();
        inj.setTraceManager(&mgr);
        inj.attach();
    }

    CheckResult
    check() const
    {
        return observe::checkEvents(mgr.snapshot(), mgr.meta,
                                    mgr.dropped());
    }

    /** The injected misspeculation trapped through the OS once and
     *  the FASE re-executed to commit with @p value. */
    void
    expectRecovered(std::uint64_t value) const
    {
        EXPECT_EQ(os.delivered(), 1u);
        EXPECT_EQ(rt.fasesAborted(), 1u);
        EXPECT_EQ(rt.fasesCommitted(), 1u);
        EXPECT_EQ(pm.readU64(data), value);
    }
};

std::string
policyName(RecoveryPolicy p)
{
    return p == RecoveryPolicy::Lazy ? "Lazy" : "Eager";
}

/** Injected-fault campaigns run under each recovery policy. */
class TraceCheckerPolicy : public testing::TestWithParam<RecoveryPolicy>
{
};

std::string
joined(const std::vector<std::string> &lines)
{
    std::string out;
    for (const auto &l : lines)
        out += l + "\n";
    return out;
}

} // namespace

TEST_P(TraceCheckerPolicy, AgreesOnInjectedLoadStale)
{
    Harness h(checkerTraceConfig(), GetParam());
    h.inj.addPlan(
        std::make_unique<AddrTouchPlan>(FaultKind::LoadStale, h.data));
    h.rt.runFase(0, [&](Transaction &tx) { tx.writeU64(h.data, 42); });

    ASSERT_EQ(h.inj.specBuffer().loadMisspecs.value(), 1u);
    h.expectRecovered(42);
    const CheckResult res = h.check();
    EXPECT_TRUE(res.ok()) << joined(res.disagreements);
    EXPECT_TRUE(res.automatonChecked);
    EXPECT_TRUE(res.storeOrderChecked);
    EXPECT_EQ(res.loadMisspecsDerived, 1u);
    EXPECT_EQ(res.loadMisspecsDetected, 1u);
    EXPECT_EQ(res.storeMisspecsDerived, 0u);
}

TEST_P(TraceCheckerPolicy, AgreesOnInjectedStoreOrderViolation)
{
    Harness h(checkerTraceConfig(), GetParam());
    h.inj.addPlan(
        std::make_unique<AddrTouchPlan>(FaultKind::StoreWaw, h.data));
    h.rt.runFase(0, [&](Transaction &tx) { tx.writeU64(h.data, 21); });

    ASSERT_EQ(h.inj.specBuffer().storeMisspecs.value(), 1u);
    h.expectRecovered(21);
    const CheckResult res = h.check();
    EXPECT_TRUE(res.ok()) << joined(res.disagreements);
    EXPECT_EQ(res.storeMisspecsDerived, 1u);
    EXPECT_EQ(res.storeMisspecsDetected, 1u);
    EXPECT_EQ(res.loadMisspecsDerived, 0u);
}

TEST(TraceChecker, BenignDelayedPersistDerivesNoMisspec)
{
    Harness h;
    h.inj.addPlan(std::make_unique<NthAccessPlan>(
        FaultKind::PersistDelay, 1, nsToTicks(100)));
    h.rt.runFase(0, [&](Transaction &tx) { tx.writeU64(h.data, 13); });

    ASSERT_EQ(h.inj.interruptsRaised(), 0u);
    const CheckResult res = h.check();
    EXPECT_TRUE(res.ok()) << joined(res.disagreements);
    EXPECT_EQ(res.loadMisspecsDerived, 0u);
    EXPECT_EQ(res.loadMisspecsDetected, 0u);
    EXPECT_EQ(res.storeMisspecsDerived, 0u);
    EXPECT_GT(res.events, 0u);
}

TEST(TraceChecker, TamperedStreamMissingVerdictDisagrees)
{
    Harness h;
    h.inj.addPlan(
        std::make_unique<AddrTouchPlan>(FaultKind::LoadStale, h.data));
    h.rt.runFase(0, [&](Transaction &tx) { tx.writeU64(h.data, 5); });

    // Strip the hardware's SbMisspec verdicts, simulating a detector
    // that silently missed the misspeculation.
    std::vector<trace::Event> tampered;
    for (const auto &e : h.mgr.snapshot())
        if (e.kind != EventKind::SbMisspec)
            tampered.push_back(e);
    const CheckResult res =
        observe::checkEvents(tampered, h.mgr.meta, h.mgr.dropped());
    EXPECT_FALSE(res.ok());
    EXPECT_EQ(res.loadMisspecsDerived, 1u);
    EXPECT_EQ(res.loadMisspecsDetected, 0u);
    EXPECT_NE(joined(res.disagreements).find("did not report"),
              std::string::npos);
}

TEST(TraceChecker, DroppedEventsDisqualifyTheStream)
{
    trace::Config cfg = checkerTraceConfig();
    trace::Manager mgr(cfg, 0);
    mgr.meta.flags = cfg.flags;
    mgr.meta.specWindow = nsToTicks(1000);
    mgr.meta.specAutomaton = true;
    const CheckResult res =
        observe::checkEvents({}, mgr.meta, /*dropped=*/3);
    EXPECT_FALSE(res.ok());
    EXPECT_NE(joined(res.disagreements).find("lossless"),
              std::string::npos);
}

TEST(TraceChecker, NonSpeculativeDesignHasNothingToCheck)
{
    trace::Meta meta;
    meta.design = "IntelX86";
    meta.flags = trace::FlagSpecBuffer;
    meta.specAutomaton = false;
    const CheckResult res = observe::checkEvents({}, meta, 0);
    EXPECT_TRUE(res.ok());
    EXPECT_FALSE(res.automatonChecked);
    ASSERT_FALSE(res.notes.empty());
}

TEST_P(TraceCheckerPolicy, CertifiesExportedBinaryLog)
{
    const std::string out = testing::TempDir() + "pmemspec_oracle_" +
                            policyName(GetParam()) + ".bin";
    trace::Config cfg = checkerTraceConfig();
    cfg.outPath = out;
    {
        Harness h(cfg, GetParam());
        h.inj.addPlan(std::make_unique<AddrTouchPlan>(
            FaultKind::StoreWaw, h.data));
        h.rt.runFase(0,
                     [&](Transaction &tx) { tx.writeU64(h.data, 9); });
        h.expectRecovered(9);
        ASSERT_EQ(observe::exportTraceFile(h.mgr), out);
    }
    const CheckResult res = observe::checkTraceFile(out);
    std::remove(out.c_str());
    EXPECT_TRUE(res.ok()) << joined(res.disagreements);
    EXPECT_EQ(res.storeMisspecsDerived, 1u);
    EXPECT_EQ(res.storeMisspecsDetected, 1u);
}

INSTANTIATE_TEST_SUITE_P(
    Policies, TraceCheckerPolicy,
    testing::Values(RecoveryPolicy::Lazy, RecoveryPolicy::Eager),
    [](const testing::TestParamInfo<RecoveryPolicy> &info) {
        return policyName(info.param);
    });

TEST(TraceChecker, UnreadableFileIsADisagreement)
{
    const CheckResult res =
        observe::checkTraceFile("/nonexistent/pmemspec.bin");
    EXPECT_FALSE(res.ok());
}

TEST(TraceChecker, CorruptHeaderCountIsRefusedBeforeAllocating)
{
    // With the 9-byte design name "PMEM-Spec", designLen sits at
    // bytes 40-43 and eventCount at 53-60. A count corrupted past
    // the file's size must be refused as unreadable before any
    // buffer is sized from it (an absurd count throws
    // std::bad_alloc, which aborts trace_check). Each mutant is
    // resealed with a matching checksum, so the count checks
    // themselves are what refuse it.
    trace::Meta meta;
    meta.design = "PMEM-Spec";
    meta.flags = trace::FlagSpecBuffer;
    meta.numCores = 1;
    std::vector<trace::Event> events(2);
    events[1].seq = 1;
    const std::string path =
        testing::TempDir() + "pmemspec_corrupt_header.bin";
    ASSERT_TRUE(observe::writeBinaryTrace(path, meta, events, 0));
    ASSERT_TRUE(observe::readBinaryTrace(path));
    std::ifstream in(path, std::ios::binary);
    const std::string clean{std::istreambuf_iterator<char>(in), {}};
    in.close();

    for (std::size_t offset : {40, 41, 56, 57, 60}) {
        std::string bytes = clean;
        bytes[offset] = '\xff';
        const std::size_t sealed = bytes.size() - 4;
        const std::uint32_t crc = crc32c(bytes.data(), sealed);
        for (int i = 0; i < 4; ++i)
            bytes[sealed + i] = static_cast<char>((crc >> (8 * i)) & 0xff);
        std::ofstream(path, std::ios::binary) << bytes;
        std::string err;
        EXPECT_FALSE(observe::readBinaryTrace(path, &err)) << offset;
        EXPECT_FALSE(err.empty()) << offset;
        EXPECT_FALSE(observe::checkTraceFile(path).ok()) << offset;
    }
    std::remove(path.c_str());
}

TEST(TraceChecker, AgreesWithTimingMachineOnProvokedMisspec)
{
    // The Section 8.4 stale-read kernel with a 100x persist path: the
    // timing machine's detector reports a genuine load misspec and
    // the offline replica must re-derive exactly it -- plus agree on
    // every benign automaton transition and window expiry around it.
    cpu::MachineConfig cfg;
    cfg.design = persistency::Design::PmemSpec;
    cfg.mem.numCores = 1;
    cfg.mem.l1Bytes = 1024;
    cfg.mem.l1Ways = 1;
    cfg.mem.llcBytes = 4096;
    cfg.mem.llcWays = 1;
    cfg.mem.persistPathLatency = nsToTicks(2000);
    cfg.mem.speculationWindow = 4 * nsToTicks(2000);
    cfg.trace.flags = trace::FlagSpecBuffer | trace::FlagPmController;

    cpu::Machine m(cfg);
    cpu::Trace t;
    const Addr set_stride = 64 * blockBytes;
    const Addr victim = 50 * set_stride;
    t.push_back({cpu::TraceOp::Store, victim});
    for (unsigned i = 1; i <= 5; ++i)
        t.push_back({cpu::TraceOp::Store, i * set_stride});
    t.push_back({cpu::TraceOp::Compute, 3000});
    t.push_back({cpu::TraceOp::LoadDep, victim});
    std::vector<cpu::Trace> traces{std::move(t)};
    m.setTraces(std::move(traces));
    const auto r = m.run();
    ASSERT_GE(r.loadMisspecs, 1u);

    ASSERT_NE(m.traceManager(), nullptr);
    const trace::Manager &mgr = *m.traceManager();
    const CheckResult res =
        observe::checkEvents(mgr.snapshot(), mgr.meta, mgr.dropped());
    EXPECT_TRUE(res.ok()) << joined(res.disagreements);
    EXPECT_TRUE(res.automatonChecked);
    EXPECT_TRUE(res.storeOrderChecked);
    EXPECT_EQ(res.loadMisspecsDerived, r.loadMisspecs);
    EXPECT_EQ(res.loadMisspecsDetected, r.loadMisspecs);
    EXPECT_EQ(res.expiriesDerived, res.expiriesDetected);
}

TEST(TraceChecker, AgreesWithTimingMachineOnCleanRun)
{
    // The realistic 20ns path never misspeculates on the same kernel;
    // the checker must certify the clean stream too (zero derived,
    // zero detected, all expiries accounted for).
    cpu::MachineConfig cfg;
    cfg.design = persistency::Design::PmemSpec;
    cfg.mem.numCores = 1;
    cfg.mem.l1Bytes = 1024;
    cfg.mem.l1Ways = 1;
    cfg.mem.llcBytes = 4096;
    cfg.mem.llcWays = 1;
    cfg.mem.persistPathLatency = nsToTicks(20);
    cfg.mem.speculationWindow = 4 * nsToTicks(20);
    cfg.trace.flags = trace::FlagSpecBuffer | trace::FlagPmController;

    cpu::Machine m(cfg);
    cpu::Trace t;
    const Addr set_stride = 64 * blockBytes;
    const Addr victim = 50 * set_stride;
    t.push_back({cpu::TraceOp::Store, victim});
    for (unsigned i = 1; i <= 5; ++i)
        t.push_back({cpu::TraceOp::Store, i * set_stride});
    t.push_back({cpu::TraceOp::Compute, 3000});
    t.push_back({cpu::TraceOp::LoadDep, victim});
    std::vector<cpu::Trace> traces{std::move(t)};
    m.setTraces(std::move(traces));
    const auto r = m.run();
    ASSERT_EQ(r.loadMisspecs, 0u);

    const trace::Manager &mgr = *m.traceManager();
    const CheckResult res =
        observe::checkEvents(mgr.snapshot(), mgr.meta, mgr.dropped());
    EXPECT_TRUE(res.ok()) << joined(res.disagreements);
    EXPECT_EQ(res.loadMisspecsDerived, 0u);
    EXPECT_EQ(res.storeMisspecsDerived, 0u);
}
