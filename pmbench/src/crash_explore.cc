/**
 * @file
 * crash_explore: the crash-state model checker over all eight
 * faultinject workloads (five persistent structures, three downsized
 * macro workloads) with reorderings at the default depth plus torn
 * writes, on one host thread. It never runs the timing machine.
 *
 * Each workload instance is wrapped in TimedWorkload, a forwarding
 * decorator that spans and counts the callbacks the explorer makes
 * into the pmds layer; explore time minus those spans is the
 * explorer's own time (snapshot/restore, recovery, enumeration).
 */

#include <algorithm>

#include "bench.hh"
#include "faultinject/crash_explorer.hh"
#include "faultinject/pmds_workloads.hh"
#include "mem/mem_config.hh"
#include "mem/persist_path.hh"

namespace pmbench
{

namespace
{

using namespace pmemspec;
using faultinject::CrashWorkload;

/** crash_check's default reorder depth. */
constexpr unsigned kWindowDepth = 6;

class TimedWorkload final : public CrashWorkload
{
  public:
    TimedWorkload(std::unique_ptr<CrashWorkload> w, Tracer &t, int c)
        : inner(std::move(w)), tr(t), cell(c)
    {
    }

    const char *name() const override { return inner->name(); }
    std::size_t pmBytes() const override { return inner->pmBytes(); }
    std::size_t logBytes() const override { return inner->logBytes(); }
    std::size_t numOps() const override { return inner->numOps(); }

    void
    setup(runtime::PersistentMemory &pm, runtime::FaseRuntime &rt) override
    {
        Scope s(tr, "pmds.setup", cell);
        const auto t0 = Clock::now();
        inner->setup(pm, rt);
        setupS += secondsSince(t0);
    }

    void
    runOp(runtime::Transaction &tx, std::size_t op) override
    {
        ++opCalls;
        Scope s(tr, "pmds.op_body", cell);
        inner->runOp(tx, op);
    }

    void
    applyToModel(std::size_t op) override
    {
        Scope s(tr, "pmds.check", cell);
        inner->applyToModel(op);
    }

    bool
    matchesModel() const override
    {
        Scope s(tr, "pmds.check", cell);
        return inner->matchesModel();
    }

    bool
    checkInvariants() const override
    {
        Scope s(tr, "pmds.check", cell);
        return inner->checkInvariants();
    }

    std::uint64_t opCalls = 0;
    /** Host seconds in setup(), clocked in every batch: the explorer
     *  seeds the structure once per workload, before its first op. */
    double setupS = 0;

  private:
    std::unique_ptr<CrashWorkload> inner;
    Tracer &tr;
    int cell;
};

class CrashExplore final : public Workload
{
  public:
    explicit CrashExplore(std::uint64_t seed)
    {
        for (const auto &wl : faultinject::makeAllWorkloads())
            names.emplace_back(wl->name());
        // As crash_check: never enumerate deeper than the default
        // timing model's speculation window can hold.
        const mem::MemConfig timing;
        const auto physical = mem::persistsInWindow(
            timing.effectiveSpecWindow(), timing.persistPathLatency);
        opts.reorderings = true;
        opts.tornWrites = true;
        opts.windowDepth = static_cast<unsigned>(
            std::min<std::size_t>(kWindowDepth, physical));
        opts.enumSeed = seed;
    }

    Batch run(Tracer &tr) override;

  private:
    std::vector<std::string> names;
    faultinject::ExploreOptions opts;
};

Batch
CrashExplore::run(Tracer &tr)
{
    Batch out;
    auto &ex = out.exact;
    std::uint64_t crashPoints = 0, torn = 0, windows = 0, explored = 0,
                  deduped = 0, naive = 0, elided = 0, failures = 0,
                  opCalls = 0;
    for (std::size_t i = 0; i < names.size(); ++i) {
        const int cell = static_cast<int>(i);
        TimedWorkload wl(faultinject::workloadFactory(names[i])(), tr, cell);
        faultinject::ExploreResult res;
        {
            Scope s(tr, "faultinject.explore", cell);
            res = faultinject::exploreCrashPoints(wl, opts);
        }
        out.setupS += wl.setupS;
        crashPoints += res.crashPoints;
        torn += res.tornTrials;
        windows += res.reorderWindows;
        explored += res.reorderStatesExplored;
        deduped += res.reorderStatesDeduped;
        naive += res.naiveStates;
        elided += res.elidedPersists;
        failures += res.failures;
        opCalls += wl.opCalls;
        if (!res.passed()) {
            out.errors.push_back("crash_explore: " + names[i] + ": " +
                                 std::to_string(res.failures) +
                                 " oracle failure(s)");
            for (const auto &m : res.messages)
                out.errors.push_back("  " + m);
        }
    }
    const std::uint64_t trials = crashPoints + torn + explored;
    ex["faultinject.crash_points"] = static_cast<double>(crashPoints);
    ex["faultinject.torn_trials"] = static_cast<double>(torn);
    ex["faultinject.reorder_windows"] = static_cast<double>(windows);
    ex["faultinject.states_explored"] = static_cast<double>(explored);
    ex["faultinject.states_deduped"] = static_cast<double>(deduped);
    ex["faultinject.naive_states"] = static_cast<double>(naive);
    ex["faultinject.elided_persists"] = static_cast<double>(elided);
    ex["faultinject.failures"] = static_cast<double>(failures);
    ex["faultinject.useful_ratio"] =
        naive ? static_cast<double>(explored) / static_cast<double>(naive)
              : 0;
    ex["pmds.op_calls"] = static_cast<double>(opCalls);

    out.work = trials;
    out.attempted = trials;
    out.failed = failures;
    out.successRatio = 1 - static_cast<double>(failures) /
                               static_cast<double>(trials);
    return out;
}

} // namespace

std::unique_ptr<Workload>
makeCrashExplore(std::uint64_t seed)
{
    return std::make_unique<CrashExplore>(seed);
}

} // namespace pmbench
