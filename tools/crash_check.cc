/**
 * @file
 * crash_check: the crash-state model checker as a CLI.
 *
 * Runs the crash-state exploration over the named workloads
 * (default: all five persistent data structures plus the downsized
 * TATP / TPC-C / Vacation macro workloads) with persist-reordering
 * exploration on, prints the per-workload verdict with the reduction
 * counters, and optionally writes the pmemspec-bench-v1 JSON
 * envelope for CI gating and the BENCH_modelcheck.json trajectory.
 * Each workload is explored sequentially on one host thread
 * (exploreCrashPoints); two runs differ only in the wall_ms fields.
 *
 * Exit status is the number of workloads with oracle violations
 * (capped at 125), so CI can gate directly on it. The flags are
 * declared to the shared cli::Parser (both --flag=value and
 * --flag value; counts are digits only), and a usage error exits 2.
 */

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/cli.hh"
#include "core/sweep.hh"
#include "faultinject/crash_explorer.hh"
#include "faultinject/pmds_workloads.hh"
#include "mem/mem_config.hh"
#include "mem/persist_path.hh"

namespace
{

struct Options
{
    unsigned depth = 6;
    bool prefixOnly = false;
    bool torn = false;
    bool listOnly = false;
    std::string jsonPath;
    std::vector<std::string> workloads;

    void
    parse(int argc, char **argv)
    {
        pmemspec::cli::Parser cli(
            "crash_check",
            "Explores every crash point of each workload (default: all)\n"
            "and the reordered persist subsets of its speculation\n"
            "window. Exit status is the number of failing workloads\n"
            "(capped at 125); a usage error exits 2.");
        using pmemspec::cli::Zero;
        cli.count("--depth", depth, Zero::Allowed,
                  "window entries enumerated past each crash\n"
                  "point, clamped to the timing model's window");
        cli.flag("--prefix-only", prefixOnly,
                 "disable reorder exploration (baseline)");
        cli.flag("--torn", torn, "also explore torn-write frontiers");
        cli.string("--json", jsonPath, "PATH",
                   "write the pmemspec-bench-v1 envelope");
        cli.flag("--list", listOnly,
                 "print the known workload names and exit");
        cli.positionals(workloads, "[workload ...]");
        cli.parseOrExit(argc, argv);
    }
};

} // namespace

int
main(int argc, char **argv)
{
    using namespace pmemspec;
    using faultinject::ExploreOptions;
    using faultinject::ExploreResult;

    Options opt;
    opt.parse(argc, argv);

    // The seeded-bug twins are selectable by name (demo / debugging)
    // but excluded from the default run: misordered_undo FAILS by
    // design -- that is the point of it.
    auto all = faultinject::makeAllWorkloads();
    const std::size_t defaultCount = all.size();
    all.push_back(faultinject::makeSpecOrderingBugWorkload(true));
    all.push_back(faultinject::makeSpecOrderingBugWorkload(false));
    if (opt.listOnly) {
        for (std::size_t i = 0; i < all.size(); ++i)
            std::printf("%s%s\n", all[i]->name(),
                        i < defaultCount ? "" : " (on request only)");
        return 0;
    }

    // Depth beyond what the persist path can physically hold in
    // flight would check impossible states; clamp to the default
    // timing model's window.
    const mem::MemConfig timing;
    const auto physical = mem::persistsInWindow(
        timing.effectiveSpecWindow(), timing.persistPathLatency);
    if (opt.depth > physical) {
        std::fprintf(stderr,
                     "crash_check: depth %u exceeds the speculation "
                     "window (%zu persists); clamping\n",
                     opt.depth, physical);
        opt.depth = static_cast<unsigned>(physical);
    }

    std::vector<std::string> selected;
    for (const auto &name : opt.workloads) {
        bool found = false;
        for (const auto &wl : all)
            if (name == wl->name())
                found = true;
        if (!found) {
            std::fprintf(stderr,
                         "crash_check: unknown workload '%s' "
                         "(try --list)\n",
                         name.c_str());
            return 2;
        }
        selected.push_back(name);
    }
    if (selected.empty()) {
        for (std::size_t i = 0; i < defaultCount; ++i)
            selected.push_back(all[i]->name());
    }

    ExploreOptions eopt;
    eopt.reorderings = !opt.prefixOnly;
    eopt.windowDepth = opt.depth;
    eopt.tornWrites = opt.torn;

    core::ResultSink sink("crash_check");
    sink.setMeta("window_depth", Json(std::uint64_t{opt.depth}));
    sink.setMeta("reorderings", Json(!opt.prefixOnly));
    sink.setMeta("torn_writes", Json(opt.torn));

    int failing = 0;
    std::uint64_t totNaive = 0, totExplored = 0, totPruned = 0;
    double totalMs = 0;
    for (const auto &name : selected) {
        const auto wl = faultinject::workloadFactory(name)();
        const auto t0 = std::chrono::steady_clock::now();
        const ExploreResult res =
            faultinject::exploreCrashPoints(*wl, eopt);
        const double ms =
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - t0)
                .count();

        std::printf(
            "%-16s %s  ops=%zu crash_points=%zu torn_trials=%zu "
            "corruption_reported=%zu windows=%llu naive=%llu "
            "explored=%llu deduped=%llu pruned=%llu elided=%llu "
            "reduction=%.1fx  %.0f ms\n",
            name.c_str(), res.passed() ? "PASS" : "FAIL", res.ops,
            res.crashPoints, res.tornTrials, res.corruptionReported,
            static_cast<unsigned long long>(res.reorderWindows),
            static_cast<unsigned long long>(res.naiveStates),
            static_cast<unsigned long long>(res.reorderStatesExplored),
            static_cast<unsigned long long>(res.reorderStatesDeduped),
            static_cast<unsigned long long>(res.statesPruned()),
            static_cast<unsigned long long>(res.elidedPersists),
            res.reductionFactor(), ms);
        for (const auto &msg : res.messages)
            std::printf("  VIOLATION: %s\n", msg.c_str());
        if (res.messagesSuppressed)
            std::printf("  ... and %zu more violation(s)\n",
                        res.messagesSuppressed);
        std::fflush(stdout);

        Json row = Json::object();
        row.set("workload", Json(name));
        row.set("passed", Json(res.passed()));
        row.set("failures", Json(std::uint64_t{res.failures}));
        row.set("ops", Json(std::uint64_t{res.ops}));
        row.set("crash_points", Json(std::uint64_t{res.crashPoints}));
        row.set("torn_trials", Json(std::uint64_t{res.tornTrials}));
        row.set("corruption_reported",
                Json(std::uint64_t{res.corruptionReported}));
        row.set("reorder_windows", Json(res.reorderWindows));
        row.set("naive_states", Json(res.naiveStates));
        row.set("states_explored", Json(res.reorderStatesExplored));
        row.set("states_deduped", Json(res.reorderStatesDeduped));
        row.set("states_pruned", Json(res.statesPruned()));
        row.set("elided_persists", Json(res.elidedPersists));
        row.set("orderings_collapsed", Json(res.orderingsCollapsed));
        row.set("reduction_factor", Json(res.reductionFactor()));
        row.set("wall_ms", Json(ms));
        sink.addRow("modelcheck", row);

        if (!res.passed())
            ++failing;
        totNaive += res.naiveStates;
        totExplored += res.reorderStatesExplored;
        totPruned += res.statesPruned();
        totalMs += ms;
    }

    sink.setMeta("total_naive_states", Json(totNaive));
    sink.setMeta("total_states_explored", Json(totExplored));
    sink.setMeta("total_states_pruned", Json(totPruned));
    sink.setMeta("total_wall_ms", Json(totalMs));
    if (!opt.jsonPath.empty() && !sink.writeFile(opt.jsonPath))
        return 2;

    if (failing)
        std::fprintf(stderr, "crash_check: %d workload(s) FAILED\n",
                     failing);
    return failing > 125 ? 125 : failing;
}
