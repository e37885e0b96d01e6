/**
 * @file
 * The two google-benchmark guards on what a disabled hook costs:
 * disabled trace points on the persist-path hot loop, and a disabled
 * speculation profile on the undo-logged FASE loop. CI bounds each
 * guard's off variant against its A/A control. The binary holds
 * only these two because a microbenchmark is kept only while a gate
 * reads it; the host time of every other layer is measured end to
 * end by pmbench's per-layer fractions.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <vector>

#include "common/trace.hh"
#include "mem/persist_path.hh"
#include "observe/spec_profile.hh"
#include "runtime/fase_runtime.hh"
#include "runtime/virtual_os.hh"
#include "sim/event_queue.hh"

using namespace pmemspec;

/**
 * The paired, A/A-controlled method both guards use. Each benchmark
 * iteration times one block of the hot loop without the hook and one
 * block with the variant's hook, on the same objects, alternating
 * which block runs first; `block(wired)` runs one block and returns
 * its seconds. The per-pair time ratios (hooked / none) are reported
 * as counters:
 *
 *   ratio     median of the per-pair ratios,
 *   ratio_lo  its distribution-free 99% confidence interval: the
 *   ratio_hi  order statistics a sign test puts around the median.
 *
 * Blocks of a few microseconds that share their objects and memory
 * see the same host conditions, so the pair ratio resolves a fraction
 * of a percent where separately timed runs of a loop differ by 5-25%
 * on a shared host. Each guard has an A/A control variant (no hook in
 * either block), whose ratio is what the method reads when nothing
 * differs; CI bounds the cost, the hooked variant's ratio minus the
 * control's, taking the median over several processes (see ci.yml
 * for the bounds).
 */
template <typename Block>
static void
pairedRatio(benchmark::State &state, Block block)
{
    std::vector<double> ratios;
    ratios.reserve(static_cast<std::size_t>(state.max_iterations));
    bool wiredFirst = false;
    for (auto _ : state) {
        double none, with;
        if (wiredFirst) {
            with = block(true);
            none = block(false);
        } else {
            none = block(false);
            with = block(true);
        }
        wiredFirst = !wiredFirst;
        ratios.push_back(with / none);
    }
    // Sign-test interval: the median lies between order statistics
    // m/2 -+ z*sqrt(m)/2 with z = 2.576 for 99% two-sided.
    std::sort(ratios.begin(), ratios.end());
    const double m = static_cast<double>(ratios.size());
    const double half = 2.576 * std::sqrt(m) / 2;
    auto at = [&](double i) {
        return ratios[static_cast<std::size_t>(std::clamp(i, 0.0, m - 1))];
    };
    state.counters["ratio"] = at(m / 2);
    state.counters["ratio_lo"] = at(std::floor(m / 2 - half));
    state.counters["ratio_hi"] = at(std::ceil(m / 2 + half));
}

/** Seconds since `t0`. */
static double
since(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

/**
 * Cost of a wired-but-disabled trace point on the persist-path hot
 * loop (send -> pump -> deliver, three trace points per iteration),
 * by pairedRatio() over blocks of range(0) loop iterations. Variant
 * (range(1)):
 *
 *   0  no manager in either block: the A/A control,
 *   1  manager wired, every flag off: the PMEMSPEC_TRACE null/wants
 *      gate on the hot path.
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
    tcfg.flags = 0;
    trace::Manager mgr(tcfg, 1);
    trace::Manager *const hooked = state.range(1) == 1 ? &mgr : nullptr;
    const auto n = state.range(0);
    Addr a = 0;
    pairedRatio(state, [&](bool wired) {
        path.setTraceManager(wired ? hooked : nullptr, 0);
        const auto t0 = std::chrono::steady_clock::now();
        for (std::int64_t i = 0; i < n; ++i) {
            path.send(a, std::nullopt);
            a += blockBytes;
            eq.run();
        }
        return since(t0);
    });
    benchmark::DoNotOptimize(delivered);
}
BENCHMARK(BM_PersistPathSendDeliver)
    ->Args({256, 0})
    ->Args({256, 1})
    ->Iterations(8000);

/**
 * Cost of a wired-but-disabled speculation profile on the
 * undo-logged FASE hot path (the --metrics-off configuration), by
 * pairedRatio() over blocks of range(0) one-word FASEs on one
 * runtime. Variant (range(1)):
 *
 *   0  no profile in either block: the A/A control,
 *   1  a disabled profile attached to the runtime in the hooked
 *      block: the enabled() test runFase pays per FASE.
 */
static void
BM_FaseProfileOverhead(benchmark::State &state)
{
    runtime::PersistentMemory pm(1 << 24);
    runtime::VirtualOs os;
    runtime::FaseRuntime rt(pm, os, 1,
                            runtime::RecoveryPolicy::Lazy, 1 << 20);
    observe::SpecProfile prof;
    prof.setEnabled(false);
    const unsigned site = prof.site("bench");
    observe::SpecProfile *const hooked =
        state.range(1) == 1 ? &prof : nullptr;
    const auto n = state.range(0);
    const Addr a = pm.alloc(64 * 64, 64);
    std::uint64_t v = 0;
    pairedRatio(state, [&](bool wired) {
        rt.setSpecProfile(wired ? hooked : nullptr);
        const unsigned s = wired && hooked ? site : 0;
        const auto t0 = std::chrono::steady_clock::now();
        for (std::int64_t i = 0; i < n; ++i, ++v) {
            rt.runFase(0, [&](runtime::Transaction &tx) {
                tx.writeU64(a + (v % 64) * 64, v);
            }, s);
        }
        return since(t0);
    });
}
BENCHMARK(BM_FaseProfileOverhead)
    ->Args({64, 0})
    ->Args({64, 1})
    ->Iterations(4000);

BENCHMARK_MAIN();
