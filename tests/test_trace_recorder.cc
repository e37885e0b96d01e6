/**
 * @file
 * Unit tests for the logical trace recorder: access classification,
 * automatic Boundary insertion, and thread routing.
 */

#include <gtest/gtest.h>

#include "runtime/persistent_memory.hh"
#include "workloads/trace_recorder.hh"

using namespace pmemspec;
using persistency::EventKind;
using runtime::PersistentMemory;
using workloads::TraceRecorder;

namespace
{

struct Harness
{
    PersistentMemory pm{1 << 20};
    Addr logRegion;
    Addr data;
    TraceRecorder rec{pm, 2};

    Harness()
        : logRegion(pm.alloc(4096, 64)), data(pm.alloc(4096, 64))
    {
        rec.addLogRegion(logRegion, 4096);
    }
};

std::vector<EventKind>
kinds(const persistency::LogicalTrace &t)
{
    std::vector<EventKind> out;
    for (const auto &e : t)
        out.push_back(e.kind);
    return out;
}

} // namespace

TEST(TraceRecorder, ClassifiesLogAndDataWrites)
{
    Harness h;
    h.pm.writeU64(h.logRegion + 64, 1);
    h.pm.writeU64(h.data, 2);
    auto t = h.rec.trace(0);
    ASSERT_EQ(t.size(), 3u);
    EXPECT_EQ(t[0].kind, EventKind::LogWrite);
    EXPECT_EQ(t[1].kind, EventKind::Boundary); // log->data ordering
    EXPECT_EQ(t[2].kind, EventKind::DataStore);
}

TEST(TraceRecorder, NoBoundaryWithoutPendingLogWrites)
{
    Harness h;
    h.pm.writeU64(h.data, 1);
    h.pm.writeU64(h.data + 8, 2);
    EXPECT_EQ(kinds(h.rec.trace(0)),
              (std::vector<EventKind>{EventKind::DataStore,
                                      EventKind::DataStore}));
}

TEST(TraceRecorder, BoundaryOncePerLogBurst)
{
    Harness h;
    h.pm.writeU64(h.logRegion + 64, 1);
    h.pm.writeU64(h.logRegion + 72, 2);
    h.pm.writeU64(h.data, 3);
    h.pm.writeU64(h.data + 8, 4);
    EXPECT_EQ(kinds(h.rec.trace(0)),
              (std::vector<EventKind>{
                  EventKind::LogWrite, EventKind::LogWrite,
                  EventKind::Boundary, EventKind::DataStore,
                  EventKind::DataStore}));
}

TEST(TraceRecorder, ReadsClassifyByDependence)
{
    Harness h;
    h.pm.readU64(h.data);
    h.pm.readU64Dep(h.data);
    auto t = h.rec.trace(0);
    ASSERT_EQ(t.size(), 2u);
    EXPECT_EQ(t[0].kind, EventKind::PmLoad);
    EXPECT_EQ(t[1].kind, EventKind::PmLoadDep);
}

TEST(TraceRecorder, StructuralEventsAndSizes)
{
    Harness h;
    h.rec.faseBegin();
    h.rec.lockAcq(3);
    h.pm.write(h.data, "xxxxxxxxxxxxxxxx", 16);
    h.rec.faseEnd();
    h.rec.lockRel(3);
    h.rec.compute(55);
    auto t = h.rec.trace(0);
    ASSERT_EQ(t.size(), 6u);
    EXPECT_EQ(t[0].kind, EventKind::FaseBegin);
    EXPECT_EQ(t[1].kind, EventKind::LockAcq);
    EXPECT_EQ(t[1].addr, 3u);
    EXPECT_EQ(t[2].kind, EventKind::DataStore);
    EXPECT_EQ(t[2].size, 16u);
    EXPECT_EQ(t[3].kind, EventKind::FaseEnd);
    EXPECT_EQ(t[4].kind, EventKind::LockRel);
    EXPECT_EQ(t[5].kind, EventKind::Compute);
    EXPECT_EQ(t[5].addr, 55u);
}

TEST(TraceRecorder, RoutesToSelectedThread)
{
    Harness h;
    h.rec.setThread(0);
    h.pm.writeU64(h.data, 1);
    h.rec.setThread(1);
    h.pm.writeU64(h.data + 8, 2);
    EXPECT_EQ(h.rec.trace(0).size(), 1u);
    EXPECT_EQ(h.rec.trace(1).size(), 1u);
}

TEST(TraceRecorder, DisabledRecorderDropsEvents)
{
    Harness h;
    h.rec.setEnabled(false);
    h.pm.writeU64(h.data, 1);
    h.rec.faseBegin();
    h.rec.setEnabled(true);
    EXPECT_TRUE(h.rec.trace(0).empty());
}

TEST(TraceRecorder, ZeroComputeIsElided)
{
    Harness h;
    h.rec.compute(0);
    EXPECT_TRUE(h.rec.trace(0).empty());
}

TEST(TraceRecorder, OperandsUpToTheLimitAreKept)
{
    Harness h;
    h.rec.compute(cpu::operandLimit - 1);
    ASSERT_EQ(h.rec.trace(0).size(), 1u);
    EXPECT_EQ(h.rec.trace(0)[0].addr, cpu::operandLimit - 1);
}

TEST(TraceRecorderDeathTest, RefusesAnOperandPastTheLimit)
{
    Harness h;
    EXPECT_DEATH(h.rec.compute(cpu::operandLimit), "does not fit 56 bits");
}

TEST(TraceRecorder, TakeTracesResets)
{
    Harness h;
    h.pm.writeU64(h.data, 1);
    auto traces = h.rec.takeTraces();
    ASSERT_EQ(traces.size(), 2u);
    EXPECT_EQ(traces[0].size(), 1u);
    EXPECT_TRUE(h.rec.trace(0).empty());
}

TEST(TraceRecorder, DetachesObserverOnDestruction)
{
    PersistentMemory pm(1 << 20);
    Addr data = pm.alloc(64);
    {
        TraceRecorder rec(pm, 1);
        pm.writeU64(data, 1);
        EXPECT_EQ(rec.trace(0).size(), 1u);
    }
    // No crash after the recorder is gone.
    pm.writeU64(data, 2);
}
