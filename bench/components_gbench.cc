/**
 * @file
 * The two google-benchmark guards on what a disabled hook costs:
 * disabled trace points on the persist-path hot loop, and a disabled
 * speculation profile on the undo-logged FASE loop. CI compares each
 * guard's off variant against its no-hook baseline. The binary holds
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
 * Cost of a wired-but-disabled trace point on the persist-path hot
 * loop (send -> pump -> deliver, three trace points per iteration).
 * Each benchmark iteration times one block of range(0) loop
 * iterations with no trace manager and one block with the variant's
 * manager, on the same path object, alternating which block runs
 * first; the per-pair time ratios are reported as counters:
 *
 *   ratio     median of the per-pair ratios (manager / none),
 *   ratio_lo  its distribution-free 99% confidence interval: the
 *   ratio_hi  order statistics a sign test puts around the median.
 *
 * Variant (range(1)):
 *
 *   0  no manager in either block: the A/A control, whose ratio is
 *      what the method reads when nothing differs,
 *   1  manager wired, every flag off: the PMEMSPEC_TRACE null/wants
 *      gate on the hot path.
 *
 * Blocks of a few microseconds that share the path, its queue and
 * its memory see the same host conditions, so the pair ratio resolves
 * a fraction of a percent where separately timed runs of the loop
 * differ by 5-11% on a shared host. CI bounds the cost, variant 1's
 * ratio minus variant 0's, taking the median over several processes
 * (see ci.yml for the bound).
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
    trace::Manager *const wired = state.range(1) == 1 ? &mgr : nullptr;
    const auto n = state.range(0);
    Addr a = 0;
    auto block = [&](trace::Manager *m) {
        path.setTraceManager(m, 0);
        const auto t0 = std::chrono::steady_clock::now();
        for (std::int64_t i = 0; i < n; ++i) {
            path.send(a, std::nullopt);
            a += blockBytes;
            eq.run();
        }
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
            .count();
    };
    std::vector<double> ratios;
    ratios.reserve(static_cast<std::size_t>(state.max_iterations));
    bool wiredFirst = false;
    for (auto _ : state) {
        double none, with;
        if (wiredFirst) {
            with = block(wired);
            none = block(nullptr);
        } else {
            none = block(nullptr);
            with = block(wired);
        }
        wiredFirst = !wiredFirst;
        ratios.push_back(with / none);
    }
    benchmark::DoNotOptimize(delivered);
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
BENCHMARK(BM_PersistPathSendDeliver)
    ->Args({256, 0})
    ->Args({256, 1})
    ->Iterations(8000);

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
