/**
 * @file
 * CrashWorkload adapters over the five persistent data structures
 * (pm_array, pm_queue, pm_hashmap, pm_rbtree, kv_store), each paired
 * with a volatile shadow model, plus downsized adapters over the
 * macro workloads (TATP, TPC-C, Vacation) and a deliberately
 * mis-ordered undo-log workload the reorder explorer must catch.
 * Together with exploreCrashPoints() they give the repo an
 * exhaustive crash-consistency check for every structure the
 * benchmarks exercise.
 */

#ifndef PMEMSPEC_FAULTINJECT_PMDS_WORKLOADS_HH
#define PMEMSPEC_FAULTINJECT_PMDS_WORKLOADS_HH

#include <memory>
#include <string>
#include <vector>

#include "faultinject/crash_explorer.hh"

namespace pmemspec::faultinject
{

/** One adapter per persistent data structure, ready to explore. */
std::vector<std::unique_ptr<CrashWorkload>> makeStandardWorkloads();

/** Downsized TATP / TPC-C / Vacation adapters (small tables, fixed
 *  transaction schedules) so the macro workloads fit the explorer's
 *  per-crash-point recovery budget. */
std::vector<std::unique_ptr<CrashWorkload>> makeMacroWorkloads();

/** The five structures plus the three macro workloads. */
std::vector<std::unique_ptr<CrashWorkload>> makeAllWorkloads();

/**
 * A raw two-cell undo-logged workload whose setup toggles the undo
 * logs' ordering (spec-barrier) tags via
 * FaseRuntime::setLogOrderingTags(ordering_tags).
 *
 * With the tags off the log's count bump may overtake the very
 * entry it publishes inside the speculation window -- the classic
 * misordered-publication bug. Every prefix crash state still
 * recovers (store order protects prefixes), so prefix-only
 * exploration *provably cannot* see the bug; only the reorder
 * explorer reaches the count-without-entry states where recovery
 * must report corruption. With the tags on (the correct runtime)
 * the same workload passes the reorder exploration too -- the
 * paired oracle test for the model checker.
 */
std::unique_ptr<CrashWorkload>
makeSpecOrderingBugWorkload(bool ordering_tags);

/**
 * Factory for fresh instances of the named workload (every name
 * makeAllWorkloads() and the seeded-bug twins answer to), for
 * callers that select workloads by name. Returns an empty function
 * for an unknown name.
 */
WorkloadFactory workloadFactory(const std::string &name);

} // namespace pmemspec::faultinject

#endif // PMEMSPEC_FAULTINJECT_PMDS_WORKLOADS_HH
