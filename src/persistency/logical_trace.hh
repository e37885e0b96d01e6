/**
 * @file
 * Design-independent logical PM events.
 *
 * Workloads record what they *do* (log writes, data stores, loads,
 * lock operations); the lowering pass then expands the stream into the
 * design-specific instruction mix of the paper's Figure 2:
 *
 *   IntelX86 : CLWB per dirty block + SFENCE at each ordering point;
 *   DPO      : same binary as IntelX86; the hardware persists via
 *              buffers, with a durability drain at FASE end;
 *   HOPS     : ofence at the log/data boundary, dfence at FASE end;
 *   PMEM-Spec: nothing but spec-barrier at FASE end, with
 *              spec-assign / spec-revoke around critical sections.
 */

#ifndef PMEMSPEC_PERSISTENCY_LOGICAL_TRACE_HH
#define PMEMSPEC_PERSISTENCY_LOGICAL_TRACE_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "cpu/trace.hh"

namespace pmemspec::persistency
{

/** What the program logically did, before ISA lowering. */
enum class EventKind : std::uint8_t
{
    /** A failure-atomic section (transaction) begins. */
    FaseBegin,
    /** Undo/redo-log append of `size` bytes at `addr`. */
    LogWrite,
    /** The log/data ordering point: log entries must be durable (or
     *  ordered) before the data writes that follow. */
    Boundary,
    /** In-place data store of `size` bytes at `addr`. */
    DataStore,
    /** The FASE commits; its writes must be durable. */
    FaseEnd,
    /** Independent PM load of `size` bytes. */
    PmLoad,
    /** Dependent PM load (pointer chase); blocks the core. */
    PmLoadDep,
    /** Acquire lock `addr`. */
    LockAcq,
    /** Release lock `addr`. */
    LockRel,
    /** `addr` cycles of non-memory work. */
    Compute,
};

/** One logical event, in 16 bytes: the kind packed beside a 56-bit
 *  `addr`, the same width as the instruction operand lowering copies
 *  it into, plus the 32-bit size. */
struct LogicalEvent
{
    EventKind kind : 8;
    Addr addr : cpu::operandBits = 0;
    std::uint32_t size = 0;
};
static_assert(sizeof(LogicalEvent) == 16,
              "LogicalEvent is an 8-byte word plus its size");

/** One thread's logical stream. */
using LogicalTrace = std::vector<LogicalEvent>;

} // namespace pmemspec::persistency

#endif // PMEMSPEC_PERSISTENCY_LOGICAL_TRACE_HH
