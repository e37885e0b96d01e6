/**
 * @file
 * The two google-benchmark guards behind the "<1% when off" claims:
 * disabled trace points on the persist-path hot loop, and a disabled
 * speculation profile on the undo-logged FASE loop. CI compares each
 * guard's off variant against its no-hook baseline. The binary holds
 * only these two because a microbenchmark is kept only while a gate
 * reads it; the host time of every other layer is measured end to
 * end by pmbench's per-layer fractions.
 */

#include <benchmark/benchmark.h>

#include "common/trace.hh"
#include "mem/persist_path.hh"
#include "observe/spec_profile.hh"
#include "runtime/fase_runtime.hh"
#include "runtime/virtual_os.hh"
#include "sim/event_queue.hh"

using namespace pmemspec;

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
                          [&](CoreId, Addr, std::optional<SpecId>,
                              Waiter &) {
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

BENCHMARK_MAIN();
