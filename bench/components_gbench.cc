/**
 * @file
 * google-benchmark microbenchmarks of the simulator substrates: the
 * event kernel, cache tag array, bloom filter, functional PM, undo
 * log and red-black tree. These quantify the simulator itself (host
 * time), not the simulated machine.
 */

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "common/bloom_filter.hh"
#include "common/rng.hh"
#include "common/trace.hh"
#include "core/experiment.hh"
#include "service/service.hh"
#include "mem/cache.hh"
#include "mem/persist_path.hh"
#include "observe/spec_profile.hh"
#include "persistency/lowering.hh"
#include "pmds/pm_rbtree.hh"
#include "runtime/fase_runtime.hh"
#include "runtime/undo_log.hh"
#include "runtime/virtual_os.hh"
#include "sim/event_queue.hh"
#include "workloads/workload.hh"

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

/**
 * Simulated-ops/sec of the whole timing machine on the fig09
 * configuration (Table 3 defaults, 8 cores, TPCC), one benchmark per
 * design (arg = Design enumerator). Traces are generated and lowered
 * once in setup; every iteration constructs and runs a fresh timing
 * machine, so items/sec is committed FASEs per host second -- the
 * simulator-core throughput number CI gates against BENCH_simcore.json.
 */
static void
BM_SimCoreFig09(benchmark::State &state)
{
    const auto design =
        static_cast<persistency::Design>(state.range(0));
    cpu::MachineConfig machine = core::defaultMachineConfig(8);
    machine.design = design;
    machine.mem.l1ToLlcExtra =
        design == persistency::Design::HOPS ? nsToTicks(1.0) : 0;

    workloads::WorkloadParams params;
    params.numThreads = 8;
    params.opsPerThread = 50;
    const auto logical =
        workloads::generateTraces(workloads::BenchId::Tpcc, params);
    std::vector<cpu::Trace> traces;
    traces.reserve(logical.size());
    for (const auto &lt : logical)
        traces.push_back(persistency::lower(lt, design));

    std::uint64_t fases = 0;
    std::uint64_t events = 0;
    for (auto _ : state) {
        cpu::Machine m(machine);
        m.setTraces(traces); // copy: each run consumes its own
        const auto r = m.run();
        fases += r.fases;
        events += r.events;
        benchmark::DoNotOptimize(fases);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(fases));
    state.counters["events_per_fase"] = benchmark::Counter(
        fases ? static_cast<double>(events) /
                    static_cast<double>(fases)
              : 0);
    state.SetLabel(persistency::designName(design));
}
BENCHMARK(BM_SimCoreFig09)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Arg(3)
    ->Unit(benchmark::kMillisecond);

/**
 * Host-thread scaling of the domain-parallel service run (arg =
 * --sim-threads): one full ycsb_service-shaped run per iteration --
 * 8 shard domains, default chaos disabled, PMEM-Spec design --
 * executed on N host threads. items/sec is succeeded client ops per
 * host second, the FASEs/s axis of the EXPERIMENTS.md scaling table
 * and the number CI gates against BENCH_service.json. The merged
 * result is byte-identical across the arg values (DESIGN.md section
 * 12); only the wall clock moves, so the ratio between args IS the
 * scaling curve.
 */
static void
BM_ServiceScaling(benchmark::State &state)
{
    service::ServiceConfig cfg;
    cfg.shards = 8;
    cfg.clients = 8;
    cfg.duration = nsToTicks(4000000); // 4 ms simulated
    cfg.design = persistency::Design::PmemSpec;
    cfg.simThreads = static_cast<unsigned>(state.range(0));

    std::uint64_t ops = 0;
    for (auto _ : state) {
        service::Service svc(cfg);
        const auto r = svc.run();
        ops += r.succeeded;
        benchmark::DoNotOptimize(ops);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(ops));
    state.SetLabel("sim_threads=" +
                   std::to_string(state.range(0)));
}
// UseRealTime: with worker threads the main thread's CPU clock is
// mostly idle (it joins the pool), so the default CPU-time rate
// would be meaningless; wall clock is the quantity being scaled.
BENCHMARK(BM_ServiceScaling)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Custom main: translate the repo-wide `--json PATH` flag into
// google-benchmark's JSON reporter so this binary emits a
// BENCH_*.json like every other bench binary.
int
main(int argc, char **argv)
{
    std::vector<std::string> args;
    for (int i = 0; i < argc; ++i) {
        if (std::string(argv[i]) == "--json" && i + 1 < argc) {
            args.push_back(std::string("--benchmark_out=") +
                           argv[i + 1]);
            args.push_back("--benchmark_out_format=json");
            ++i;
        } else {
            args.push_back(argv[i]);
        }
    }
    std::vector<char *> cargs;
    cargs.reserve(args.size());
    for (auto &a : args)
        cargs.push_back(a.data());
    int cargc = static_cast<int>(cargs.size());

    benchmark::Initialize(&cargc, cargs.data());
    if (benchmark::ReportUnrecognizedArguments(cargc, cargs.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
