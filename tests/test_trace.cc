/**
 * @file
 * Tests for the event-tracing layer: flag parsing, ring buffer
 * policies (drop-and-count in trace mode with rings grown on demand,
 * overwrite in flight-recorder mode), event formatting, the flight
 * dump, the machine-level flight recorder on a forced misspeculation
 * trap, both exporters (Chrome trace-event JSON schema keys, binary
 * log round trip) and a seeded mutation fuzz of the binary log reader.
 */

#include <gtest/gtest.h>
#include <malloc.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/trace.hh"
#include "cpu/machine.hh"
#include "faultinject/fault_injector.hh"
#include "faultinject/fault_plan.hh"
#include "observe/binary_log.hh"
#include "observe/chrome_trace.hh"
#include "observe/trace_checker.hh"
#include "observe/trace_export.hh"
#include "runtime/fase_runtime.hh"
#include "runtime/persistent_memory.hh"
#include "runtime/virtual_os.hh"

using namespace pmemspec;
using trace::Config;
using trace::Detail;
using trace::Event;
using trace::EventKind;
using trace::Manager;

namespace
{

std::string
tmpPath(const std::string &name)
{
    return testing::TempDir() + "pmemspec_" + name;
}

/** Record n events with distinct addresses onto one core's ring. */
void
recordN(Manager &m, unsigned n, CoreId core = 0)
{
    for (unsigned i = 0; i < n; ++i)
        m.record(trace::FlagSpecBuffer, EventKind::SbWriteBack,
                 Tick{10} * (i + 1), core, Addr{0x1000} + i * blockBytes,
                 {.stateBefore = 0, .stateAfter = 1});
}

} // namespace

TEST(TraceFlags, ParseRoundTrip)
{
    std::uint32_t mask = 0;
    EXPECT_TRUE(trace::parseFlags("PersistPath,SpecBuffer", mask));
    EXPECT_EQ(mask, trace::FlagPersistPath | trace::FlagSpecBuffer);
    EXPECT_EQ(trace::flagsToString(mask), "PersistPath,SpecBuffer");

    EXPECT_TRUE(trace::parseFlags("all", mask));
    EXPECT_EQ(mask, trace::FlagAll);
    EXPECT_EQ(trace::flagsToString(mask), "all");

    // Every individual flag name round-trips through its own bit.
    for (unsigned bit = 0; bit < trace::numFlags; ++bit) {
        std::uint32_t one = 0;
        EXPECT_TRUE(trace::parseFlags(trace::flagName(bit), one));
        EXPECT_EQ(one, 1u << bit);
    }
}

TEST(TraceFlags, UnknownNameRejectedAndMaskUntouched)
{
    std::uint32_t mask = 0xdead;
    EXPECT_FALSE(trace::parseFlags("PersistPath,NoSuchFlag", mask));
    EXPECT_EQ(mask, 0xdeadu); // untouched on failure
}

TEST(TraceRing, TraceModeDropsAndCountsOnOverflow)
{
    Config cfg;
    cfg.flags = trace::FlagSpecBuffer;
    cfg.ringEntries = 4;
    Manager m(cfg, 1);

    recordN(m, 10);
    // Drop-newest policy: the first 4 events are retained, the other
    // 6 are counted as dropped (the checker refuses such a stream).
    EXPECT_EQ(m.recorded(), 4u);
    EXPECT_EQ(m.dropped(), 6u);
    const auto snap = m.snapshot();
    ASSERT_EQ(snap.size(), 4u);
    for (std::size_t i = 0; i < snap.size(); ++i) {
        EXPECT_EQ(snap[i].seq, i);
        EXPECT_EQ(snap[i].addr, Addr{0x1000} + i * blockBytes);
    }
}

TEST(TraceRing, UncoredRingIsLargerInTraceMode)
{
    Config cfg;
    cfg.flags = trace::FlagPmController;
    cfg.ringEntries = 4;
    Manager m(cfg, 1);

    // The uncored ring (PMC and friends) gets 4x the per-core size.
    for (unsigned i = 0; i < 16; ++i)
        m.record(trace::FlagPmController, EventKind::PmcPersistAccept,
                 i, trace::kNoCore, 0x2000, {});
    EXPECT_EQ(m.recorded(), 16u);
    EXPECT_EQ(m.dropped(), 0u);
}

TEST(TraceRing, TraceModeRingsGrowOnDemandUpToTheirCap)
{
    // A lossless capture asks for huge rings. Allocated up front they
    // cost (cores + 4) x ringEntries x 48 B before a single event is
    // recorded: about 604 MB here.
    Config cfg;
    cfg.flags = trace::FlagSpecBuffer;
    cfg.ringEntries = std::size_t{1} << 20;
    const auto heap_bytes = [] {
        const struct mallinfo2 mi = mallinfo2();
        return static_cast<long long>(mi.uordblks + mi.hblkhd);
    };
    const long long before = heap_bytes();
    Manager m(cfg, 8);
    EXPECT_LT(heap_bytes() - before, 1ll << 20);

    // The cap still holds: the event past it is dropped and counted.
    recordN(m, (1u << 20) + 1);
    EXPECT_EQ(m.recorded(), 1u << 20);
    EXPECT_EQ(m.dropped(), 1u);
}

TEST(TraceRing, FlightModeOverwritesKeepingLastN)
{
    Config cfg;
    cfg.flightRecorder = true;
    cfg.flightEntries = 8;
    Manager m(cfg, 1);

    recordN(m, 20);
    // Overwrite policy: everything is recorded, nothing dropped, and
    // only the newest 8 events survive -- in record order.
    EXPECT_EQ(m.recorded(), 20u);
    EXPECT_EQ(m.dropped(), 0u);
    const auto snap = m.snapshot();
    ASSERT_EQ(snap.size(), 8u);
    for (std::size_t i = 0; i < snap.size(); ++i)
        EXPECT_EQ(snap[i].seq, 12 + i);
    // The flight recorder listens to every component.
    EXPECT_TRUE(m.wants(trace::FlagFaultInject));
}

TEST(TraceRing, TailAndFormat)
{
    Config cfg;
    cfg.flags = trace::FlagSpecBuffer;
    Manager m(cfg, 1);
    recordN(m, 5);

    const auto last2 = m.tail(2);
    ASSERT_EQ(last2.size(), 2u);
    EXPECT_EQ(last2[0].seq, 3u);
    EXPECT_EQ(last2[1].seq, 4u);

    const std::string line = Manager::format(last2[1]);
    EXPECT_NE(line.find("SpecBuffer.SbWriteBack"), std::string::npos);
    EXPECT_NE(line.find("Initial->Evict"), std::string::npos);

    const auto lines = m.formatTail(2);
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_EQ(lines[1], line);
}

TEST(TraceRing, DumpWritesFlightWindowAndRecordsMarker)
{
    Config cfg;
    cfg.flightRecorder = true;
    cfg.flightEntries = 16;
    Manager m(cfg, 1);
    m.meta.design = "PMEM-Spec";
    recordN(m, 3);

    const std::string path = tmpPath("dump.txt");
    std::FILE *f = std::fopen(path.c_str(), "w+");
    ASSERT_NE(f, nullptr);
    m.dump(f);
    std::fflush(f);
    std::rewind(f);
    std::string text(4096, '\0');
    text.resize(std::fread(text.data(), 1, text.size(), f));
    std::fclose(f);
    std::remove(path.c_str());

    EXPECT_NE(text.find("flight recorder: last 3"), std::string::npos);
    EXPECT_NE(text.find("(PMEM-Spec)"), std::string::npos);
    EXPECT_NE(text.find("SbWriteBack"), std::string::npos);
    // The dump leaves a marker event in the stream.
    const auto snap = m.snapshot();
    EXPECT_EQ(snap.back().kind, EventKind::FlightDump);
    EXPECT_EQ(snap.back().arg, 3u);
}

TEST(TraceFlight, MachineDumpsFlightWindowOnForcedMisspecTrap)
{
    // The Section 8.4 stale-read kernel with a pathological persist
    // path forces a genuine load misspeculation; with the flight
    // recorder on, the machine must have captured the automaton
    // transitions leading into the trap.
    cpu::MachineConfig cfg;
    cfg.design = persistency::Design::PmemSpec;
    cfg.mem.numCores = 1;
    cfg.mem.l1Bytes = 1024;
    cfg.mem.l1Ways = 1;
    cfg.mem.llcBytes = 4096;
    cfg.mem.llcWays = 1;
    cfg.mem.persistPathLatency = nsToTicks(2000);
    cfg.mem.speculationWindow = 4 * nsToTicks(2000);
    cfg.trace.flightRecorder = true;

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

    testing::internal::CaptureStderr();
    const auto r = m.run();
    const std::string err = testing::internal::GetCapturedStderr();

    ASSERT_GE(r.loadMisspecs, 1u);
    ASSERT_NE(m.traceManager(), nullptr);
    // The trap handler dumped the window to stderr...
    EXPECT_NE(err.find("flight recorder"), std::string::npos);
    EXPECT_NE(err.find("SbMisspec"), std::string::npos);
    // ...and the retained stream ends in trap-path events.
    bool saw_misspec = false, saw_trap = false, saw_dump = false;
    for (const Event &e : m.traceManager()->snapshot()) {
        saw_misspec |= e.kind == EventKind::SbMisspec;
        saw_trap |= e.kind == EventKind::OsTrap;
        saw_dump |= e.kind == EventKind::FlightDump;
    }
    EXPECT_TRUE(saw_misspec);
    EXPECT_TRUE(saw_trap);
    EXPECT_TRUE(saw_dump);
}

TEST(TraceExport, ChromeJsonCarriesDocumentedSchema)
{
    Config cfg;
    cfg.flags = trace::FlagSpecBuffer | trace::FlagPmController;
    Manager m(cfg, 2);
    m.meta.design = "PMEM-Spec";
    m.meta.flags = cfg.flags;
    m.meta.specWindow = nsToTicks(640);
    m.meta.specEntries = 16;
    m.meta.numCores = 2;
    m.meta.specAutomaton = true;
    m.record(trace::FlagSpecBuffer, EventKind::SbWriteBack,
             nsToTicks(5), 1, 0x1000,
             {.stateBefore = 0, .stateAfter = 1});
    m.record(trace::FlagPmController, EventKind::PmcPersistAccept,
             nsToTicks(7), trace::kNoCore, 0x1000,
             {.specId = 3, .unit = 0});

    const Json doc =
        observe::chromeTraceJson(m.snapshot(), m.meta, m.dropped());

    // Golden keys of the "pmemspec-trace-v1" schema (README).
    const Json *events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_NE(doc.find("displayTimeUnit"), nullptr);
    const Json *other = doc.find("otherData");
    ASSERT_NE(other, nullptr);
    ASSERT_NE(other->find("schema"), nullptr);
    EXPECT_EQ(other->find("schema")->str(), "pmemspec-trace-v1");
    EXPECT_EQ(other->find("design")->str(), "PMEM-Spec");
    EXPECT_EQ(other->find("events")->uintValue(), 2u);
    EXPECT_EQ(other->find("dropped")->uintValue(), 0u);
    ASSERT_NE(other->find("specWindowTicks"), nullptr);
    ASSERT_NE(other->find("numCores"), nullptr);

    // Find the instant event rows (metadata rows use ph == "M").
    std::size_t instants = 0;
    for (std::size_t i = 0; i < events->size(); ++i) {
        const Json &e = events->at(i);
        ASSERT_NE(e.find("ph"), nullptr);
        if (e.find("ph")->str() != "i")
            continue;
        ++instants;
        ASSERT_NE(e.find("name"), nullptr);
        ASSERT_NE(e.find("cat"), nullptr);
        ASSERT_NE(e.find("ts"), nullptr);
        ASSERT_NE(e.find("pid"), nullptr);
        ASSERT_NE(e.find("tid"), nullptr);
        ASSERT_NE(e.find("args"), nullptr);
        ASSERT_NE(e.find("args")->find("seq"), nullptr);
        ASSERT_NE(e.find("args")->find("addr"), nullptr);
    }
    EXPECT_EQ(instants, 2u);
}

TEST(TraceExport, BinaryLogRoundTrips)
{
    Config cfg;
    cfg.flags = trace::FlagSpecBuffer;
    Manager m(cfg, 1);
    m.meta.design = "PMEM-Spec";
    m.meta.flags = cfg.flags;
    m.meta.specWindow = 12345;
    m.meta.specEntries = 8;
    m.meta.numCores = 1;
    m.meta.specAutomaton = true;
    recordN(m, 6);

    const std::string path = tmpPath("roundtrip.bin");
    ASSERT_TRUE(observe::writeBinaryTrace(path, m.meta, m.snapshot(),
                                          m.dropped()));
    std::string err;
    auto bt = observe::readBinaryTrace(path, &err);
    std::remove(path.c_str());
    ASSERT_TRUE(bt.has_value()) << err;
    EXPECT_EQ(bt->meta.design, "PMEM-Spec");
    EXPECT_EQ(bt->meta.flags, m.meta.flags);
    EXPECT_EQ(bt->meta.specWindow, 12345u);
    EXPECT_EQ(bt->meta.specEntries, 8u);
    EXPECT_EQ(bt->meta.numCores, 1u);
    EXPECT_TRUE(bt->meta.specAutomaton);
    EXPECT_EQ(bt->dropped, 0u);
    EXPECT_EQ(bt->events, m.snapshot());
}

/**
 * Seeded mutation fuzz of the sealed binary log. A one-FASE run with
 * one injected store-order misspeculation is exported; each round
 * truncates the log, flips bits in it or overwrites header bytes.
 * Every mutant must either be refused by the reader (so trace_check
 * reports it and exits 1) or, when the mutation left the bytes as
 * they were, yield exactly the original verdict.
 */
TEST(TraceLogFuzz, EveryMutantIsRefusedOrGivesTheOriginalVerdict)
{
    const std::string path = tmpPath("fuzz.bin");
    {
        Config cfg;
        cfg.flags = trace::FlagSpecBuffer | trace::FlagPmController |
                    trace::FlagFaultInject;
        cfg.outPath = path;
        runtime::PersistentMemory pm(1 << 20);
        runtime::VirtualOs os;
        runtime::FaseRuntime rt(pm, os, 1, runtime::RecoveryPolicy::Lazy);
        faultinject::FaultInjector inj(pm, os);
        Manager mgr(cfg, 0);
        const Addr data = pm.alloc(64, 64);
        pm.persistAll();
        inj.setTraceManager(&mgr);
        inj.attach();
        inj.addPlan(std::make_unique<faultinject::AddrTouchPlan>(
            faultinject::FaultKind::StoreWaw, data));
        rt.runFase(0, [&](runtime::Transaction &tx) {
            tx.writeU64(data, 9);
        });
        ASSERT_EQ(observe::exportTraceFile(mgr), path);
    }
    const observe::CheckResult original = observe::checkTraceFile(path);
    ASSERT_TRUE(original.ok());
    ASSERT_EQ(original.storeMisspecsDerived, 1u);
    std::ifstream in(path, std::ios::binary);
    const std::string clean{std::istreambuf_iterator<char>(in), {}};
    in.close();
    // magic, version, flags, window, entries, cores, automaton + pad,
    // designLen, "PMEM-Spec", eventCount, droppedCount.
    const std::size_t header = 8 + 4 + 4 + 8 + 4 + 4 + 8 + 4 + 9 + 8 + 8;
    ASSERT_GT(clean.size(), header);

    constexpr std::uint64_t seed = 2026;
    constexpr std::size_t rounds = 300;
    Rng rng(seed);
    std::size_t truncated = 0, flipped = 0, overwritten = 0,
                refusals = 0;
    for (std::size_t round = 0; round < rounds; ++round) {
        std::string bytes = clean;
        switch (rng.below(3)) {
        case 0:
            bytes.resize(rng.below(clean.size()));
            ++truncated;
            break;
        case 1:
            for (std::uint64_t i = 0, n = 1 + rng.below(4); i < n; ++i)
                bytes[rng.below(bytes.size())] ^=
                    static_cast<char>(1u << rng.below(8));
            ++flipped;
            break;
        default:
            for (std::uint64_t i = 0, n = 1 + rng.below(4); i < n; ++i)
                bytes[rng.below(header)] =
                    static_cast<char>(rng.below(256));
            ++overwritten;
            break;
        }
        std::ofstream(path, std::ios::binary) << bytes;

        std::string err;
        const bool readable = observe::readBinaryTrace(path, &err)
                                  .has_value();
        const observe::CheckResult res = observe::checkTraceFile(path);
        if (bytes == clean) {
            ASSERT_TRUE(readable) << "round " << round << ": " << err;
            // The verdict as trace_check prints it, and its reasons.
            ASSERT_EQ(res.summary(), original.summary()) << round;
            ASSERT_EQ(res.disagreements, original.disagreements);
            ASSERT_EQ(res.notes, original.notes);
            continue;
        }
        ASSERT_FALSE(readable)
            << "round " << round << " (seed " << seed
            << "): a mutated log was read";
        ASSERT_FALSE(err.empty()) << "round " << round;
        ASSERT_FALSE(res.ok()) << "round " << round;
        ++refusals;
    }
    std::remove(path.c_str());
    // Every mutation kind ran and the reader refused some mutants.
    EXPECT_GE(truncated, 1u);
    EXPECT_GE(flipped, 1u);
    EXPECT_GE(overwritten, 1u);
    EXPECT_GE(refusals, rounds / 2);
}

TEST(TraceExport, LabelledPathKeepsExtension)
{
    EXPECT_EQ(observe::tracePathWithLabel("out.json", "lat500"),
              "out.lat500.json");
    EXPECT_EQ(observe::tracePathWithLabel("out.bin", "a/b"),
              "out.a_b.bin");
    EXPECT_EQ(observe::tracePathWithLabel("out.json", ""), "out.json");
    EXPECT_EQ(observe::tracePathWithLabel("trace", "x"), "trace.x");
}
