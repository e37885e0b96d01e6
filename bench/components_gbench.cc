/**
 * @file
 * google-benchmark microbenchmarks of the simulator substrates: the
 * event kernel, cache tag array, bloom filter, functional PM, undo
 * log and red-black tree. These quantify the simulator itself (host
 * time), not the simulated machine.
 */

#include <benchmark/benchmark.h>

#include "common/bloom_filter.hh"
#include "common/rng.hh"
#include "common/trace.hh"
#include "mem/cache.hh"
#include "mem/persist_path.hh"
#include "observe/spec_profile.hh"
#include "pmds/pm_rbtree.hh"
#include "runtime/fase_runtime.hh"
#include "runtime/undo_log.hh"
#include "runtime/virtual_os.hh"
#include "sim/event_queue.hh"

using namespace pmemspec;

static void
BM_EventQueueScheduleStep(benchmark::State &state)
{
    sim::EventQueue eq;
    Tick t = 0;
    for (auto _ : state) {
        eq.schedule(++t, [] {});
        eq.step();
    }
}
BENCHMARK(BM_EventQueueScheduleStep);

static void
BM_EventQueueFanOut(benchmark::State &state)
{
    for (auto _ : state) {
        sim::EventQueue eq;
        for (int i = 0; i < state.range(0); ++i)
            eq.schedule(static_cast<Tick>(i), [] {});
        eq.run();
    }
}
BENCHMARK(BM_EventQueueFanOut)->Arg(64)->Arg(1024);

static void
BM_CacheAccessHit(benchmark::State &state)
{
    mem::SetAssocCache cache("c", 64 * 1024, 4);
    cache.insert(0x1000, false);
    for (auto _ : state)
        benchmark::DoNotOptimize(cache.access(0x1000));
}
BENCHMARK(BM_CacheAccessHit);

static void
BM_CacheInsertEvict(benchmark::State &state)
{
    mem::SetAssocCache cache("c", 64 * 1024, 4);
    Addr a = 0;
    for (auto _ : state) {
        cache.insert(a, true);
        a += blockBytes;
    }
}
BENCHMARK(BM_CacheInsertEvict);

/**
 * Persist-path hot loop (send -> pump -> deliver) under three trace
 * attachments, selected by the benchmark argument:
 *
 *   0  no manager wired (the pre-tracing baseline),
 *   1  manager wired but the PersistPath flag disabled -- the cost of
 *      the PMEMSPEC_TRACE null/wants gate on the hot path,
 *   2  tracing on (events recorded into the ring).
 *
 * CI asserts variant 1 is within 1% of variant 0: disabled trace
 * points must be free on the persist-path hot loop.
 */
static void
BM_PersistPathSendDeliver(benchmark::State &state)
{
    sim::EventQueue eq;
    StatGroup stats{"bench"};
    std::uint64_t delivered = 0;
    mem::PersistPath path(eq, &stats, 0, nsToTicks(20), 8,
                          [&](CoreId, Addr, std::optional<SpecId>) {
                              ++delivered;
                              return true;
                          });
    trace::Config tcfg;
    tcfg.flightRecorder = false;
    tcfg.flags =
        state.range(0) == 2 ? std::uint32_t{trace::FlagPersistPath} : 0u;
    trace::Manager mgr(tcfg, 1);
    if (state.range(0) != 0)
        path.setTraceManager(&mgr, 0);
    Addr a = 0;
    for (auto _ : state) {
        path.send(a, std::nullopt);
        a += blockBytes;
        eq.run();
    }
    benchmark::DoNotOptimize(delivered);
}
BENCHMARK(BM_PersistPathSendDeliver)->Arg(0)->Arg(1)->Arg(2);

static void
BM_BloomInsertCheckRemove(benchmark::State &state)
{
    BloomFilter bloom(2048, 3);
    Addr a = 0;
    for (auto _ : state) {
        bloom.insert(a);
        benchmark::DoNotOptimize(bloom.mayContain(a));
        bloom.remove(a);
        a += blockBytes;
    }
}
BENCHMARK(BM_BloomInsertCheckRemove);

static void
BM_PersistentMemoryWrite(benchmark::State &state)
{
    runtime::PersistentMemory pm(1 << 24);
    Addr a = pm.alloc(1 << 20, 64);
    std::uint64_t v = 0;
    for (auto _ : state) {
        pm.writeU64(a + (v % 1024) * 8, v);
        ++v;
        if (v % 256 == 0)
            pm.persistAll();
    }
}
BENCHMARK(BM_PersistentMemoryWrite);

static void
BM_UndoLoggedFase(benchmark::State &state)
{
    runtime::PersistentMemory pm(1 << 24);
    runtime::VirtualOs os;
    runtime::FaseRuntime rt(pm, os, 1,
                            runtime::RecoveryPolicy::Lazy, 1 << 20);
    Addr a = pm.alloc(64 * 64, 64);
    std::uint64_t v = 0;
    for (auto _ : state) {
        rt.runFase(0, [&](runtime::Transaction &tx) {
            tx.writeU64(a + (v % 64) * 64, v);
        });
        ++v;
    }
}
BENCHMARK(BM_UndoLoggedFase);

/**
 * Cost of the FASE speculation profile on the undo-logged FASE hot
 * path (the metrics-overhead CI gate): arg 0 = no profile attached,
 * arg 1 = attached but disabled (the --metrics-off configuration the
 * <1% gate compares against arg 0), arg 2 = recording.
 */
static void
BM_FaseProfileOverhead(benchmark::State &state)
{
    runtime::PersistentMemory pm(1 << 24);
    runtime::VirtualOs os;
    runtime::FaseRuntime rt(pm, os, 1,
                            runtime::RecoveryPolicy::Lazy, 1 << 20);
    observe::SpecProfile prof;
    prof.setEnabled(state.range(0) == 2);
    unsigned site = 0;
    if (state.range(0) != 0) {
        site = prof.site("bench");
        rt.setSpecProfile(&prof);
    }
    Addr a = pm.alloc(64 * 64, 64);
    std::uint64_t v = 0;
    for (auto _ : state) {
        rt.runFase(0, [&](runtime::Transaction &tx) {
            tx.writeU64(a + (v % 64) * 64, v);
        }, site);
        ++v;
    }
}
BENCHMARK(BM_FaseProfileOverhead)->Arg(0)->Arg(1)->Arg(2);

static void
BM_RbTreeInsertErase(benchmark::State &state)
{
    runtime::PersistentMemory pm(1 << 26);
    runtime::VirtualOs os;
    runtime::FaseRuntime rt(pm, os, 1,
                            runtime::RecoveryPolicy::Lazy, 1 << 20);
    pmds::PmRbTree tree(pm);
    Rng rng(1);
    for (auto _ : state) {
        const std::uint64_t k = 1 + rng.below(1 << 12);
        rt.runFase(0, [&](runtime::Transaction &tx) {
            if (rng.chance(0.5))
                tree.insert(tx, k, k);
            else
                tree.erase(tx, k);
        });
    }
}
BENCHMARK(BM_RbTreeInsertErase)->Iterations(50000);

BENCHMARK_MAIN();
