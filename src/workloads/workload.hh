/**
 * @file
 * The benchmarks of Table 4 as logical-trace generators.
 *
 * Each generator executes the workload functionally against the
 * runtime layer while a TraceRecorder captures per-thread logical
 * streams; the persistency lowering pass then produces the
 * design-specific instruction traces replayed by the timing machine.
 *
 * Locking disciplines (all deadlock-free: lock ids are acquired in
 * ascending order within a FASE):
 *   Array Swaps : 64 stripe locks over the element index space;
 *   Queue       : one global lock (a FIFO is inherently serial);
 *   Hashmap     : 64 stripe locks over buckets;
 *   RB-Tree     : one global lock (rotations touch many nodes);
 *   TATP        : 64 stripe locks over subscriber ids;
 *   TPCC        : one lock per district + 16 stock stripe locks;
 *   Vacation    : one lock per resource table + customer stripes;
 *   Memcached   : 64 stripe locks over buckets.
 */

#ifndef PMEMSPEC_WORKLOADS_WORKLOAD_HH
#define PMEMSPEC_WORKLOADS_WORKLOAD_HH

#include <cstdint>
#include <string>
#include <vector>

#include "persistency/logical_trace.hh"

namespace pmemspec::workloads
{

/** The eight benchmarks of Table 4. */
enum class BenchId
{
    ArraySwaps,
    Queue,
    Hashmap,
    RbTree,
    Tatp,
    Tpcc,
    Vacation,
    Memcached,
};

/** Paper-facing benchmark name. */
const char *benchName(BenchId id);

/** All benchmarks in the paper's figure order. */
std::vector<BenchId> allBenchmarks();

/** Parse a benchmark from its paper-facing name; false on no match. */
bool benchFromName(const std::string &name, BenchId &out);

/** Generation knobs. */
struct WorkloadParams
{
    unsigned numThreads = 8;
    /** FASEs per thread (paper: 100K; benches scale this down --
     *  throughput is steady-state). */
    std::uint64_t opsPerThread = 2000;
    std::uint64_t seed = 1;
};

/** The PM arena of one generation run. */
struct ArenaUse
{
    /** Arena size: the logs plus the structures' footprints. */
    std::size_t bytes = 0;
    /** Bytes the run allocated from it. */
    std::size_t used = 0;
};

/**
 * Run the benchmark functionally and capture one logical trace per
 * thread. Deterministic in (id, params). The arena is sized from the
 * footprints of the structures the benchmark builds; @p arena, if
 * given, receives its size and use.
 */
std::vector<persistency::LogicalTrace>
generateTraces(BenchId id, const WorkloadParams &params,
               ArenaUse *arena = nullptr);

} // namespace pmemspec::workloads

#endif // PMEMSPEC_WORKLOADS_WORKLOAD_HH
