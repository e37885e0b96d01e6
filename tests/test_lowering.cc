/**
 * @file
 * Unit tests for the per-design lowering pass: each design's
 * instruction mix must match the programming models of Figure 2.
 */

#include <gtest/gtest.h>

#include <vector>

#include "persistency/lowering.hh"

using namespace pmemspec;
using namespace pmemspec::persistency;
using cpu::TraceOp;

namespace
{

/** A canonical one-FASE logical trace: log, boundary, data, end. */
LogicalTrace
canonicalFase()
{
    return {
        {EventKind::FaseBegin, 0, 0},
        {EventKind::LockAcq, 5, 0},
        {EventKind::LogWrite, 0x1000, 16},
        {EventKind::Boundary, 0, 0},
        {EventKind::DataStore, 0x2000, 16},
        {EventKind::FaseEnd, 0, 0},
        {EventKind::LockRel, 5, 0},
    };
}

} // namespace

TEST(Lowering, IntelX86UsesClwbAndSfence)
{
    auto t = lower(canonicalFase(), Design::IntelX86);
    auto mix = instrMix(t);
    EXPECT_EQ(mix.stores, 4u); // 32 bytes at 8B grain
    EXPECT_EQ(mix.clwbs, 2u);  // one dirty block per region
    EXPECT_EQ(mix.sfences, 2u); // boundary + FASE end
    EXPECT_EQ(mix.ofences, 0u);
    EXPECT_EQ(mix.dfences, 0u);
    EXPECT_EQ(mix.specBarriers, 0u);
}

TEST(Lowering, DpoRunsTheX86BinaryPlusBufferSemantics)
{
    auto t = lower(canonicalFase(), Design::DPO);
    auto mix = instrMix(t);
    EXPECT_EQ(mix.clwbs, 2u);
    EXPECT_EQ(mix.sfences, 2u);
    // Barriers become persist-ordering points, and commit durability
    // waits on the buffer.
    EXPECT_EQ(mix.ofences, 2u);
    EXPECT_EQ(mix.drainBuffers, 2u);
}

TEST(Lowering, HopsUsesOfenceAndDfence)
{
    auto t = lower(canonicalFase(), Design::HOPS);
    auto mix = instrMix(t);
    EXPECT_EQ(mix.clwbs, 0u);
    EXPECT_EQ(mix.sfences, 0u);
    EXPECT_EQ(mix.ofences, 1u); // log/data boundary
    EXPECT_EQ(mix.dfences, 1u); // FASE end
}

TEST(Lowering, PmemSpecNeedsOnlySpecBarrier)
{
    auto t = lower(canonicalFase(), Design::PmemSpec);
    auto mix = instrMix(t);
    EXPECT_EQ(mix.clwbs, 0u);
    EXPECT_EQ(mix.sfences, 0u);
    EXPECT_EQ(mix.ofences, 0u);
    EXPECT_EQ(mix.dfences, 0u);
    EXPECT_EQ(mix.specBarriers, 1u); // only at the FASE end
}

TEST(Lowering, PmemSpecInstrumentsCriticalSections)
{
    auto t = lower(canonicalFase(), Design::PmemSpec);
    // spec-assign right after the acquire, spec-revoke right before
    // the release (Section 5.2.2).
    bool saw_assign_after_acq = false;
    bool saw_revoke_before_rel = false;
    for (std::size_t i = 0; i + 1 < t.size(); ++i) {
        if (t[i].op == TraceOp::LockAcq &&
            t[i + 1].op == TraceOp::SpecAssign)
            saw_assign_after_acq = true;
        if (t[i].op == TraceOp::SpecRevoke &&
            t[i + 1].op == TraceOp::LockRel)
            saw_revoke_before_rel = true;
    }
    EXPECT_TRUE(saw_assign_after_acq);
    EXPECT_TRUE(saw_revoke_before_rel);
}

TEST(Lowering, OtherDesignsDoNotInstrumentLocks)
{
    for (Design d : {Design::IntelX86, Design::DPO, Design::HOPS}) {
        auto t = lower(canonicalFase(), d);
        EXPECT_EQ(cpu::countOps(t, TraceOp::SpecAssign), 0u);
        EXPECT_EQ(cpu::countOps(t, TraceOp::SpecRevoke), 0u);
    }
}

TEST(Lowering, BarrierPrecedesFaseEndMarker)
{
    // Durability must be ordered before the commit marker.
    for (Design d : {Design::IntelX86, Design::HOPS, Design::PmemSpec}) {
        auto t = lower(canonicalFase(), d);
        for (std::size_t i = 0; i < t.size(); ++i) {
            if (t[i].op == TraceOp::FaseEnd) {
                ASSERT_GT(i, 0u);
                auto prev = t[i - 1].op;
                EXPECT_TRUE(prev == TraceOp::Sfence ||
                            prev == TraceOp::Dfence ||
                            prev == TraceOp::SpecBarrier ||
                            prev == TraceOp::DrainBuffer);
            }
        }
    }
}

TEST(Lowering, ClwbsCoverExactlyTheDirtyBlocks)
{
    LogicalTrace lt = {
        {EventKind::FaseBegin, 0, 0},
        // Two writes into the same block, one into another.
        {EventKind::DataStore, 0x1000, 8},
        {EventKind::DataStore, 0x1008, 8},
        {EventKind::DataStore, 0x2000, 8},
        {EventKind::FaseEnd, 0, 0},
    };
    auto t = lower(lt, Design::IntelX86);
    auto mix = instrMix(t);
    EXPECT_EQ(mix.clwbs, 2u); // blocks 0x1000 and 0x2000
}

TEST(Lowering, ClwbsFlushEachDirtyBlockOnceInAddressOrder)
{
    LogicalTrace lt = {
        {EventKind::FaseBegin, 0, 0},
        {EventKind::LogWrite, 0x3000, 8},
        {EventKind::LogWrite, 0x1000, 8},
        {EventKind::LogWrite, 0x3008, 8},
        {EventKind::Boundary, 0, 0},
        {EventKind::DataStore, 0x2038, 16}, // straddles 0x2000/0x2040
        {EventKind::DataStore, 0x2000, 8},
        {EventKind::FaseEnd, 0, 0},
    };
    std::vector<Addr> clwbs;
    for (const auto &i : lower(lt, Design::IntelX86)) {
        if (i.op == TraceOp::Clwb)
            clwbs.push_back(i.addr);
        else if (i.op == TraceOp::Sfence)
            clwbs.push_back(0); // epoch separator
    }
    const std::vector<Addr> want = {0x1000, 0x3000, 0,
                                    0x2000, 0x2040, 0};
    EXPECT_EQ(clwbs, want);
}

TEST(Lowering, LoadsLowerToPerGrainInstructions)
{
    LogicalTrace lt = {
        {EventKind::PmLoad, 0x1000, 64},
        {EventKind::PmLoadDep, 0x2000, 16},
    };
    auto t = lower(lt, Design::PmemSpec);
    EXPECT_EQ(cpu::countOps(t, TraceOp::Load), 8u + 1u);
    // Only the first grain of a dependent read blocks.
    EXPECT_EQ(cpu::countOps(t, TraceOp::LoadDep), 1u);
}

TEST(Lowering, ComputeEventsPassThrough)
{
    LogicalTrace lt = {{EventKind::Compute, 120, 0}};
    auto t = lower(lt, Design::IntelX86);
    ASSERT_EQ(t.size(), 1u);
    EXPECT_EQ(t[0].op, TraceOp::Compute);
    EXPECT_EQ(t[0].addr, 120u);
}

TEST(Lowering, OperandsUpToTheLimitRoundTrip)
{
    // The last value a 56-bit operand holds, as cycles, lock id and
    // byte address.
    const Addr top = cpu::operandLimit - 1;
    LogicalTrace lt = {
        {EventKind::Compute, top, 0},
        {EventKind::LockAcq, top, 0},
        {EventKind::DataStore, top, 1},
        {EventKind::PmLoadDep, top, 1},
    };
    const auto t = lower(lt, Design::IntelX86);
    ASSERT_EQ(t.size(), 4u);
    const TraceOp ops[] = {TraceOp::Compute, TraceOp::LockAcq,
                           TraceOp::Store, TraceOp::LoadDep};
    for (std::size_t i = 0; i < t.size(); ++i) {
        EXPECT_EQ(t[i].op, ops[i]);
        EXPECT_EQ(t[i].addr, top);
    }
}

TEST(LoweringDeathTest, RefusesBytesAtOrPastTheOperandLimit)
{
    // The second grain of this store would start at 2^56.
    const LogicalTrace store = {
        {EventKind::DataStore, cpu::operandLimit - 8, 16}};
    EXPECT_DEATH(lower(store, Design::PmemSpec), "56-bit trace operand");
    const LogicalTrace load = {
        {EventKind::PmLoad, cpu::operandLimit - 1, 2}};
    EXPECT_DEATH(lower(load, Design::HOPS), "56-bit trace operand");
}

TEST(Lowering, ZeroCycleComputeIsElided)
{
    LogicalTrace lt = {{EventKind::Compute, 0, 0}};
    auto t = lower(lt, Design::IntelX86);
    EXPECT_TRUE(t.empty());
}

TEST(Lowering, StoreGrainIsConfigurable)
{
    LoweringOptions opts;
    opts.storeGrainBytes = 16;
    LogicalTrace lt = {{EventKind::DataStore, 0x1000, 64}};
    auto t = lower(lt, Design::PmemSpec, opts);
    EXPECT_EQ(cpu::countOps(t, TraceOp::Store), 4u);
}

TEST(Lowering, EmptyFaseStillGetsDurabilityBarrier)
{
    LogicalTrace lt = {
        {EventKind::FaseBegin, 0, 0},
        {EventKind::FaseEnd, 0, 0},
    };
    auto hops = instrMix(lower(lt, Design::HOPS));
    EXPECT_EQ(hops.dfences, 1u);
    auto spec = instrMix(lower(lt, Design::PmemSpec));
    EXPECT_EQ(spec.specBarriers, 1u);
}
