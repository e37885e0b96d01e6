#include "lowering.hh"

#include <algorithm>
#include <vector>

#include "common/logging.hh"

namespace pmemspec::persistency
{

using cpu::Trace;
using cpu::TraceInstr;
using cpu::TraceOp;

namespace
{

/** Blocks dirtied since the last flush point, in store order with
 *  repeats; flushAndFence() sorts and deduplicates them. */
using DirtyBlocks = std::vector<Addr>;

/** Refuse an access whose bytes [addr, end) do not all fit in a
 *  56-bit instruction operand. */
void
checkOperandRange(Addr addr, Addr end)
{
    fatal_if(end - 1 >= cpu::operandLimit,
             "PM access [%#llx, %#llx) does not fit a %u-bit trace "
             "operand",
             static_cast<unsigned long long>(addr),
             static_cast<unsigned long long>(end), cpu::operandBits);
}

/** Emit one store instruction per grain over [addr, addr+size). */
void
emitStores(Trace &out, Addr addr, std::uint32_t size, unsigned grain,
           DirtyBlocks *dirty_blocks)
{
    const Addr end = addr + (size ? size : 1);
    checkOperandRange(addr, end);
    for (Addr a = addr; a < end; a += grain) {
        out.push_back(TraceInstr{TraceOp::Store, a});
        if (dirty_blocks && (dirty_blocks->empty() ||
                             dirty_blocks->back() != blockAlign(a)))
            dirty_blocks->push_back(blockAlign(a));
    }
}

/** Emit one load instruction per grain; the first may be dependent. */
void
emitLoads(Trace &out, Addr addr, std::uint32_t size, unsigned grain,
          bool dependent)
{
    const Addr end = addr + (size ? size : 1);
    checkOperandRange(addr, end);
    bool first = true;
    for (Addr a = addr; a < end; a += grain) {
        out.push_back(TraceInstr{
            first && dependent ? TraceOp::LoadDep : TraceOp::Load, a});
        first = false;
    }
}

/** CLWB every dirty block once, in address order, then SFENCE (the
 *  x86 epoch idiom). */
void
flushAndFence(Trace &out, DirtyBlocks &dirty_blocks)
{
    std::sort(dirty_blocks.begin(), dirty_blocks.end());
    const auto last =
        std::unique(dirty_blocks.begin(), dirty_blocks.end());
    for (auto it = dirty_blocks.begin(); it != last; ++it)
        out.push_back(TraceInstr{TraceOp::Clwb, *it});
    dirty_blocks.clear();
    out.push_back(TraceInstr{TraceOp::Sfence, 0});
}

} // namespace

Trace
lower(const LogicalTrace &events, Design design,
      const LoweringOptions &opts)
{
    Trace out;
    out.reserve(events.size() * 4);
    // Blocks dirtied since the last flush point (IntelX86/DPO only).
    DirtyBlocks dirty;
    const bool x86_style =
        design == Design::IntelX86 || design == Design::DPO;

    for (const LogicalEvent &ev : events) {
        switch (ev.kind) {
          case EventKind::FaseBegin:
            out.push_back(TraceInstr{TraceOp::FaseBegin, 0});
            break;

          case EventKind::LogWrite:
          case EventKind::DataStore:
            emitStores(out, ev.addr, ev.size, opts.storeGrainBytes,
                       x86_style ? &dirty : nullptr);
            break;

          case EventKind::Boundary:
            // The log/data ordering point.
            switch (design) {
              case Design::IntelX86:
                flushAndFence(out, dirty);
                break;
              case Design::DPO:
                // Same binary as IntelX86, but DPO targeted ARM's
                // relaxed consistency and "enforces the persist-order
                // for not only SFENCE but other barriers inherited in
                // programs" (Section 8.2.2): every barrier waits for
                // the (globally serialised) persist buffer to drain.
                flushAndFence(out, dirty);
                out.push_back(TraceInstr{TraceOp::Ofence, 0});
                out.push_back(TraceInstr{TraceOp::DrainBuffer, 0});
                break;
              case Design::HOPS:
                out.push_back(TraceInstr{TraceOp::Ofence, 0});
                break;
              case Design::PmemSpec:
                // The persist-path delivers stores in commit order:
                // no instruction needed (Section 4.2).
                break;
            }
            break;

          case EventKind::FaseEnd:
            switch (design) {
              case Design::IntelX86:
                flushAndFence(out, dirty);
                break;
              case Design::DPO:
                flushAndFence(out, dirty);
                out.push_back(TraceInstr{TraceOp::Ofence, 0});
                // Durability at commit: wait for the persist buffer.
                out.push_back(TraceInstr{TraceOp::DrainBuffer, 0});
                break;
              case Design::HOPS:
                out.push_back(TraceInstr{TraceOp::Dfence, 0});
                break;
              case Design::PmemSpec:
                out.push_back(TraceInstr{TraceOp::SpecBarrier, 0});
                break;
            }
            out.push_back(TraceInstr{TraceOp::FaseEnd, 0});
            break;

          case EventKind::PmLoad:
            emitLoads(out, ev.addr, ev.size, opts.loadGrainBytes,
                      false);
            break;

          case EventKind::PmLoadDep:
            emitLoads(out, ev.addr, ev.size, opts.loadGrainBytes,
                      true);
            break;

          case EventKind::LockAcq:
            out.push_back(TraceInstr{TraceOp::LockAcq, ev.addr});
            if (design == Design::PmemSpec) {
                // Compiler-inserted instrumentation at the critical-
                // section entrance (Section 5.2.2).
                out.push_back(TraceInstr{TraceOp::SpecAssign, 0});
            }
            break;

          case EventKind::LockRel:
            if (design == Design::PmemSpec)
                out.push_back(TraceInstr{TraceOp::SpecRevoke, 0});
            out.push_back(TraceInstr{TraceOp::LockRel, ev.addr});
            break;

          case EventKind::Compute:
            if (ev.addr != 0)
                out.push_back(TraceInstr{TraceOp::Compute, ev.addr});
            break;
        }
    }
    return out;
}

InstrMix
instrMix(const cpu::Trace &t)
{
    InstrMix m;
    for (const auto &i : t) {
        switch (i.op) {
          case TraceOp::Store:       ++m.stores; break;
          case TraceOp::Load:
          case TraceOp::LoadDep:     ++m.loads; break;
          case TraceOp::Clwb:        ++m.clwbs; break;
          case TraceOp::Sfence:      ++m.sfences; break;
          case TraceOp::Ofence:      ++m.ofences; break;
          case TraceOp::Dfence:      ++m.dfences; break;
          case TraceOp::SpecBarrier: ++m.specBarriers; break;
          case TraceOp::DrainBuffer: ++m.drainBuffers; break;
          default: break;
        }
    }
    return m;
}

} // namespace pmemspec::persistency
