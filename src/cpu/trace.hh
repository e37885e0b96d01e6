/**
 * @file
 * The trace instruction set replayed by the timing cores.
 *
 * Workloads execute functionally against the runtime layer and record
 * *logical* PM events; the per-design lowering pass (src/persistency)
 * expands those into this instruction set, mirroring the programming
 * models of the paper's Figure 2. A trace is one thread's instruction
 * stream.
 */

#ifndef PMEMSPEC_CPU_TRACE_HH
#define PMEMSPEC_CPU_TRACE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"

namespace pmemspec::cpu
{

/** Operations a timing core can replay. */
enum class TraceOp : std::uint8_t
{
    /** PM load; issues without blocking the core (up to the MLP
     *  limit) -- models OoO overlap of independent loads. */
    Load,
    /** Dependent PM load (e.g. pointer chase); the core cannot
     *  advance until the data returns. */
    LoadDep,
    /** PM store; occupies a store-queue entry until drained. */
    Store,
    /** x86 CLWB; occupies a store-queue entry, flushes the block to
     *  the PMC; outstanding until accepted (ADR). */
    Clwb,
    /** x86 SFENCE: stall until the store queue is empty and every
     *  prior CLWB has been accepted. Blocks volatile ops too. */
    Sfence,
    /** HOPS ofence: close the persist-buffer epoch, no stall. */
    Ofence,
    /** HOPS dfence: stall until the persist buffer is durable. */
    Dfence,
    /** PMEM-Spec spec-barrier: stall until the store queue has
     *  drained and the persist-path is durable. */
    SpecBarrier,
    /** PMEM-Spec spec-assign: latch a fresh speculation ID. */
    SpecAssign,
    /** PMEM-Spec spec-revoke: clear the speculation ID register. */
    SpecRevoke,
    /** Acquire the mutex identified by `addr`. */
    LockAcq,
    /** Release the mutex identified by `addr`. */
    LockRel,
    /** Marker: a failure-atomic section begins (rollback point). */
    FaseBegin,
    /** Marker: the FASE committed (throughput event). */
    FaseEnd,
    /** Spend `addr` core cycles of non-memory work. */
    Compute,
    /** DPO: stall until the core's own persist buffer drains; DPO
     *  enforces persist order on every program barrier, including
     *  lock operations (Section 8.2.2). */
    DrainBuffer,
};

/** Operand bits of a trace record: every byte address, lock id and
 *  cycle count a trace carries must be below 2^56. */
constexpr unsigned operandBits = 56;
constexpr Addr operandLimit = Addr{1} << operandBits;

/** One replayed instruction, packed into 8 bytes: the op beside a
 *  56-bit operand. `addr` is overloaded per op (byte address, lock
 *  id, or compute cycles). */
struct TraceInstr
{
    TraceOp op : 8;
    Addr addr : operandBits;
};
static_assert(sizeof(TraceInstr) == 8, "TraceInstr is one 8-byte word");

/** A single thread's instruction stream. */
using Trace = std::vector<TraceInstr>;

/** Human-readable op name (debugging and tests). */
const char *traceOpName(TraceOp op);

/** Count occurrences of an op in a trace. */
std::size_t countOps(const Trace &t, TraceOp op);

} // namespace pmemspec::cpu

#endif // PMEMSPEC_CPU_TRACE_HH
