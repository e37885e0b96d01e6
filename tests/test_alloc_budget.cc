/**
 * @file
 * Heap-allocation budget of the timing path. Continuations on the
 * store-queue -> persist-path / persist-buffer -> PMC chain never
 * capture one another, so each fits one inline slot, and the waiter
 * lists and MSHRs keep their capacity across wakes: a timing run
 * allocates almost nothing per event once its structures are warm.
 */

#include <gtest/gtest.h>

#include <cstdio>

#include "alloc_counter.hh"
#include "core/experiment.hh"
#include "persistency/lowering.hh"

using namespace pmemspec;
using persistency::Design;

namespace
{

/** Heap allocations per executed event of one Machine::run. */
double
allocsPerEvent(Design design)
{
    workloads::WorkloadParams p;
    p.numThreads = 8;
    p.opsPerThread = 100;
    std::vector<cpu::Trace> traces;
    for (const auto &lt :
         workloads::generateTraces(workloads::BenchId::Tpcc, p))
        traces.push_back(persistency::lower(lt, design));

    cpu::MachineConfig mc = core::defaultMachineConfig(8);
    mc.design = design;
    mc.mem.l1ToLlcExtra = design == Design::HOPS ? nsToTicks(1.0) : 0;
    cpu::Machine m(mc);
    m.setTraces(std::move(traces));

    std::uint64_t allocs = 0;
    cpu::RunResult r;
    {
        AllocCounter counter;
        r = m.run();
        allocs = counter.count();
    }
    EXPECT_EQ(r.fases, 800u);
    return static_cast<double>(allocs) / static_cast<double>(r.events);
}

} // namespace

TEST(AllocBudget, TimingRunAllocatesAtMostOneInTenEvents)
{
    for (Design d : persistency::allDesigns()) {
        const double per_event = allocsPerEvent(d);
        std::printf("%-9s %.4f allocations/event\n",
                    persistency::designName(d).c_str(), per_event);
        EXPECT_LE(per_event, 0.1) << persistency::designName(d);
    }
}
