/**
 * @file
 * Heap-allocation budgets of the timing and the functional paths.
 *
 * Timing: continuations on the store-queue -> persist-path /
 * persist-buffer -> PMC chain never capture one another, so each
 * fits one inline slot, and the waiter lists and MSHRs keep their
 * capacity across wakes: a timing run allocates almost nothing per
 * event once its structures are warm.
 *
 * Functional: a word-sized undo-log entry and a KV read copy their
 * bytes through stack buffers, and the in-flight persist queue keeps
 * its entries and their payload buffers across drains, so once warm
 * neither they nor a KV write of a value wider than an inline payload
 * allocate.
 */

#include <gtest/gtest.h>

#include <cstdio>

#include "alloc_counter.hh"
#include "core/experiment.hh"
#include "persistency/lowering.hh"
#include "pmds/kv_store.hh"
#include "runtime/fase_runtime.hh"
#include "runtime/persistent_memory.hh"
#include "runtime/undo_log.hh"
#include "runtime/virtual_os.hh"

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

TEST(AllocBudget, WordUndoLogEntryAllocatesNothingOnceWarm)
{
    runtime::PersistentMemory pm(1 << 20);
    const Addr data = pm.alloc(64, 64);
    const Addr region = pm.alloc(4096, 64);
    runtime::UndoLog log(pm, region, 4096);
    log.reset();
    pm.persistAll();

    // One FASE's worth of logging; the first round grows the
    // in-flight queue, the second must reuse it.
    std::uint64_t allocs = 0;
    for (int round = 0; round < 2; ++round) {
        {
            AllocCounter counter;
            for (Addr a = data; a < data + 64; a += 8)
                log.logRange(a, 8);
            allocs = counter.count();
        }
        log.commit();
        pm.persistAll();
    }
    EXPECT_EQ(allocs, 0u);
}

TEST(AllocBudget, KvGetInsideAFaseAllocatesNothingOnceWarm)
{
    // The service shard's configuration: word-granular undo log, LRU
    // tracking on, so every hit logs and rewrites LRU links.
    runtime::PersistentMemory pm(1 << 22);
    runtime::VirtualOs os;
    runtime::FaseRuntime rt(pm, os, 1, runtime::RecoveryPolicy::Lazy,
                            1 << 16, runtime::LogGranularity::Word);
    pmds::KvConfig cfg;
    cfg.buckets = 16;
    cfg.valueBytes = 128;
    cfg.lruTracking = true;
    pmds::KvStore kv(pm, cfg);
    for (std::uint64_t k = 1; k <= 8; ++k)
        rt.runFase(0, [&](runtime::Transaction &tx) {
            kv.set(tx, k, static_cast<std::uint8_t>(k));
        });

    std::uint64_t allocs = 0;
    std::optional<std::uint8_t> got[8];
    for (int round = 0; round < 2; ++round) {
        rt.runFase(0, [&](runtime::Transaction &tx) {
            AllocCounter counter;
            for (std::uint64_t k = 1; k <= 8; ++k)
                got[k - 1] = kv.get(tx, k);
            allocs = counter.count();
        });
    }
    EXPECT_EQ(allocs, 0u);
    for (std::uint64_t k = 1; k <= 8; ++k)
        EXPECT_EQ(got[k - 1], static_cast<std::uint8_t>(k));
}

TEST(AllocBudget, KvSetOfExistingKeyAllocatesNothingOnceWarm)
{
    // The service shard's configuration again. Overwriting a 128-byte
    // value queues two persists wider than an inline payload (the
    // undo entry's old value and the new value); refilled queue
    // entries keep the heap buffers the first overwrite made.
    runtime::PersistentMemory pm(1 << 22);
    runtime::VirtualOs os;
    runtime::FaseRuntime rt(pm, os, 1, runtime::RecoveryPolicy::Lazy,
                            1 << 16, runtime::LogGranularity::Word);
    pmds::KvConfig cfg;
    cfg.buckets = 16;
    cfg.valueBytes = 128;
    cfg.lruTracking = true;
    pmds::KvStore kv(pm, cfg);
    for (std::uint64_t k = 1; k <= 8; ++k)
        rt.runFase(0, [&](runtime::Transaction &tx) {
            kv.set(tx, k, static_cast<std::uint8_t>(k));
        });

    std::uint64_t allocs = 0;
    for (int round = 0; round < 2; ++round) {
        rt.runFase(0, [&](runtime::Transaction &tx) {
            AllocCounter counter;
            kv.set(tx, 3, static_cast<std::uint8_t>(0x40 + round));
            allocs = counter.count();
        });
    }
    EXPECT_EQ(allocs, 0u);
    EXPECT_EQ(kv.lookup(3), std::optional<std::uint8_t>{0x41});
}
