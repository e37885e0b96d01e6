/**
 * @file
 * Records logical PM traces while a workload executes functionally.
 *
 * The recorder installs itself as the PersistentMemory observer and
 * classifies each access:
 *
 *  - writes inside a registered undo-log region become LogWrite;
 *  - other writes become DataStore, preceded by a Boundary event
 *    whenever un-ordered log writes are pending (the undo-log
 *    discipline: a log entry must be ordered before the data write
 *    it guards);
 *  - reads become PmLoad / PmLoadDep.
 *
 * The workload driver brackets operations with faseBegin/faseEnd and
 * lockAcq/lockRel and selects the recording thread; the lowering pass
 * then turns each thread's logical stream into a design-specific
 * instruction trace.
 */

#ifndef PMEMSPEC_WORKLOADS_TRACE_RECORDER_HH
#define PMEMSPEC_WORKLOADS_TRACE_RECORDER_HH

#include <vector>

#include "persistency/logical_trace.hh"
#include "runtime/persistent_memory.hh"

namespace pmemspec::workloads
{

/** Observer turning functional execution into logical traces. */
class TraceRecorder
{
  public:
    TraceRecorder(runtime::PersistentMemory &pm, unsigned num_threads);
    ~TraceRecorder();

    TraceRecorder(const TraceRecorder &) = delete;
    TraceRecorder &operator=(const TraceRecorder &) = delete;

    /** Classify writes into [base, base+len) as undo-log traffic. */
    void addLogRegion(Addr base, std::size_t len);

    /** Route subsequent events to thread t's trace. */
    void setThread(unsigned t);

    /** Suspend/resume recording (setup phases, checkers). */
    void setEnabled(bool on) { enabled = on; }

    /** Driver-visible structural events. */
    void faseBegin();
    void faseEnd();
    void lockAcq(unsigned lock_id);
    void lockRel(unsigned lock_id);
    void compute(std::uint64_t cycles);

    /** Take the recorded traces (recorder becomes empty). */
    std::vector<persistency::LogicalTrace> takeTraces();

    /** Peek at a thread's trace (tests). */
    const persistency::LogicalTrace &trace(unsigned t) const
    {
        return traces.at(t);
    }

  private:
    void onAccess(runtime::MemOp op, Addr a, std::uint32_t size);
    bool inLogRegion(Addr a) const;
    /** Append one event to the current thread's trace; fatal() on an
     *  operand (address, lock id or cycle count) of 2^56 or more. */
    void record(persistency::EventKind kind, std::uint64_t operand,
                std::uint32_t size);

    struct Region
    {
        Addr base;
        std::size_t len;
    };

    runtime::PersistentMemory &pm;
    std::vector<persistency::LogicalTrace> traces;
    std::vector<Region> logRegions;
    unsigned curThread = 0;
    bool enabled = true;
    /** Log writes since the last Boundary (per current thread --
     *  drivers switch threads only at FASE boundaries). */
    bool pendingLogWrites = false;
};

} // namespace pmemspec::workloads

#endif // PMEMSPEC_WORKLOADS_TRACE_RECORDER_HH
