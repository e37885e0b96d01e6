#include "trace_recorder.hh"

#include "common/logging.hh"

namespace pmemspec::workloads
{

using persistency::EventKind;
using persistency::LogicalEvent;

TraceRecorder::TraceRecorder(runtime::PersistentMemory &pm_,
                             unsigned num_threads)
    : pm(pm_), traces(num_threads)
{
    fatal_if(num_threads == 0, "recorder needs threads");
    pm.setObserver([this](runtime::MemOp op, Addr a,
                          std::uint32_t size) { onAccess(op, a, size); });
}

TraceRecorder::~TraceRecorder()
{
    pm.setObserver(nullptr);
}

void
TraceRecorder::addLogRegion(Addr base, std::size_t len)
{
    logRegions.push_back(Region{base, len});
}

void
TraceRecorder::setThread(unsigned t)
{
    fatal_if(t >= traces.size(), "bad recorder thread %u", t);
    curThread = t;
}

bool
TraceRecorder::inLogRegion(Addr a) const
{
    for (const Region &r : logRegions) {
        if (a >= r.base && a < r.base + r.len)
            return true;
    }
    return false;
}

void
TraceRecorder::record(EventKind kind, std::uint64_t operand,
                      std::uint32_t size)
{
    fatal_if(operand >= cpu::operandLimit,
             "trace operand %#llx does not fit %u bits",
             static_cast<unsigned long long>(operand), cpu::operandBits);
    traces[curThread].push_back(LogicalEvent{kind, operand, size});
}

void
TraceRecorder::onAccess(runtime::MemOp op, Addr a, std::uint32_t size)
{
    if (!enabled)
        return;
    switch (op) {
      case runtime::MemOp::Write:
        if (inLogRegion(a)) {
            record(EventKind::LogWrite, a, size);
            pendingLogWrites = true;
        } else {
            if (pendingLogWrites) {
                // Undo-log discipline: order the pending log entries
                // before this guarded data write.
                record(EventKind::Boundary, 0, 0);
                pendingLogWrites = false;
            }
            record(EventKind::DataStore, a, size);
        }
        break;
      case runtime::MemOp::Read:
        record(EventKind::PmLoad, a, size);
        break;
      case runtime::MemOp::ReadDep:
        record(EventKind::PmLoadDep, a, size);
        break;
    }
}

void
TraceRecorder::faseBegin()
{
    if (!enabled)
        return;
    pendingLogWrites = false;
    record(EventKind::FaseBegin, 0, 0);
}

void
TraceRecorder::faseEnd()
{
    if (!enabled)
        return;
    pendingLogWrites = false;
    record(EventKind::FaseEnd, 0, 0);
}

void
TraceRecorder::lockAcq(unsigned lock_id)
{
    if (!enabled)
        return;
    record(EventKind::LockAcq, lock_id, 0);
}

void
TraceRecorder::lockRel(unsigned lock_id)
{
    if (!enabled)
        return;
    record(EventKind::LockRel, lock_id, 0);
}

void
TraceRecorder::compute(std::uint64_t cycles)
{
    if (!enabled || cycles == 0)
        return;
    record(EventKind::Compute, cycles, 0);
}

std::vector<persistency::LogicalTrace>
TraceRecorder::takeTraces()
{
    auto out = std::move(traces);
    traces.assign(out.size(), {});
    return out;
}

} // namespace pmemspec::workloads
