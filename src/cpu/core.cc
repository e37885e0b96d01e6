#include "core.hh"

#include "common/logging.hh"

namespace pmemspec::cpu
{

Core::Core(sim::EventQueue &eq, StatGroup *parent, CoreId id_,
           const CoreConfig &cfg_, mem::MemorySystem &memsys_,
           LockTable &lock_table)
    : sim::SimObject("core" + std::to_string(id_), eq, parent),
      id(id_),
      cfg(cfg_),
      clock(cfg_.freqGhz),
      memsys(memsys_),
      locks(lock_table),
      sq(cfg_.sqEntries)
{
    stats().addCounter("instructions", &instructions,
                       "trace instructions retired");
    stats().addCounter("fases", &fases, "failure-atomic sections done");
    stats().addCounter("aborts", &aborts, "FASEs aborted and retried");
    stats().addCounter("sfenceStalls", &sfenceStalls, "SFENCE stalls");
    stats().addCounter("dfenceStalls", &dfenceStalls, "dfence stalls");
    stats().addCounter("specBarrierStalls", &specBarrierStalls,
                       "spec-barrier stalls");
    stats().addCounter("sqFullStalls", &sqFullStalls,
                       "stalls on a full store queue");
    stats().addAccumulator("faseLatency", &faseLatency,
                           "latency of committed FASEs (ns)");
}

void
Core::setTrace(Trace t)
{
    trace = std::move(t);
    pc = 0;
    pcDone = trace.empty();
}

void
Core::setSpecIdSource(InplaceFn<SpecId()> src)
{
    specIdSource = std::move(src);
}

void
Core::start()
{
    panic_if(state != State::Idle, "core %u started twice", id);
    state = State::Running;
    requestAdvance();
}

void
Core::pauseUntil(Tick t)
{
    if (t > pausedUntil) {
        pausedUntil = t;
        PMEMSPEC_TRACE(traceMgr, FlagCore, trace::EventKind::CorePause,
                       curTick(), id, 0, {.arg = t});
    }
}

auto
Core::guardedWake()
{
    // A wake from an aborted FASE's epoch is ignored.
    return [this, gen = generation] {
        if (gen == generation)
            resume();
    };
}

void
Core::resume()
{
    if (state == State::Waiting) {
        state = State::Running;
        requestAdvance();
    }
}

void
Core::finishIfQuiesced()
{
    if (waitingFinish && quiesced()) {
        waitingFinish = false;
        requestAdvance();
    }
}

void
Core::requestAdvance()
{
    if (advancePending)
        return;
    advancePending = true;
    Tick delay = pausedUntil > curTick() ? pausedUntil - curTick() : 0;
    schedule(After{delay}, [this] {
        advancePending = false;
        advance();
    });
}

bool
Core::chargeIssue()
{
    ++issueDebtCycles;
    if (issueDebtCycles >= cfg.issueWidth * 16) {
        // Pay the accumulated issue debt as simulated time.
        const Cycles cycles = issueDebtCycles / cfg.issueWidth;
        issueDebtCycles %= cfg.issueWidth;
        schedule(After{clock.cyclesToTicks(cycles)},
                   [this] { requestAdvance(); });
        return false; // stop advancing until the debt is paid
    }
    return true;
}

void
Core::advance()
{
    if (state != State::Running)
        return;
    if (curTick() < pausedUntil) {
        requestAdvance(); // re-schedules at pausedUntil
        return;
    }
    while (state == State::Running) {
        if (pc >= trace.size()) {
            if (!quiesced()) {
                // Retirement waits for in-flight stores, flushes,
                // loads and barriers; completions re-invoke us.
                waitingFinish = true;
                return;
            }
            state = State::Idle;
            pcDone = true;
            doneTick = curTick();
            return;
        }
        const TraceInstr &instr = trace[pc];
        if (!execute(instr))
            return;
    }
}

bool
Core::execute(const TraceInstr &instr)
{
    switch (instr.op) {
      case TraceOp::Compute: {
        ++instructions;
        ++pc;
        state = State::Waiting;
        schedule(After{clock.cyclesToTicks(instr.addr)}, guardedWake());
        return false;
      }

      case TraceOp::Load:
      case TraceOp::LoadDep: {
        if (outstandingLoads >= cfg.maxLoads) {
            waitingLoadSlot = true;
            return false; // woken by a load completion
        }
        const bool dependent = (instr.op == TraceOp::LoadDep);
        ++instructions;
        ++pc;
        ++outstandingLoads;
        const std::uint64_t gen = generation;
        memsys.load(id, instr.addr, [this, dependent, gen] {
            onLoadDone(dependent, gen);
        });
        if (dependent) {
            state = State::Waiting;
            return false;
        }
        return chargeIssue();
      }

      case TraceOp::Store:
      case TraceOp::Clwb: {
        if (barriersOutstanding > 0) {
            // Persist ordering: no later persist may pass a pending
            // durability barrier.
            waitingBarrier = true;
            return false; // woken at barrier completion
        }
        if (sq.full()) {
            ++sqFullStalls;
            waitingSqSlot = true;
            return false; // woken when the SQ head drains
        }
        ++instructions;
        ++pc;
        if (insideFase && instr.op == TraceOp::Store && specProf &&
            specProf->enabled()) {
            ++faseStores;
            faseBlocks.insert(blockAlign(instr.addr));
        }
        pushSq(instr.addr, instr.op == TraceOp::Clwb);
        return chargeIssue();
      }

      case TraceOp::Sfence: {
        // x86 SFENCE: block everything until the SQ has drained and
        // every outstanding CLWB flush has been acknowledged by the
        // persistent domain.
        if (!drained()) {
            ++sfenceStalls;
            state = State::Waiting;
            waitDrained(guardedWake());
            return false;
        }
        ++instructions;
        ++pc;
        return chargeIssue();
      }

      case TraceOp::Ofence: {
        ++instructions;
        ++pc;
        memsys.ofence(id);
        return chargeIssue();
      }

      case TraceOp::Dfence:
      case TraceOp::DrainBuffer:
      case TraceOp::SpecBarrier: {
        if (barriersOutstanding > 0) {
            waitingBarrier = true;
            return false; // barriers are ordered among themselves
        }
        ++instructions;
        ++pc;
        ++(instr.op == TraceOp::SpecBarrier ? specBarrierStalls
                                            : dfenceStalls);
        ++barriersOutstanding;
        waitDrained([this, gen = generation] {
            memsys.persistBarrier(id, [this, gen] { onBarrierDone(gen); });
        });
        return true; // volatile work continues past the barrier
      }

      case TraceOp::SpecAssign: {
        ++instructions;
        ++pc;
        panic_if(!specIdSource, "spec-assign without an ID source");
        specIdReg = specIdSource();
        return chargeIssue();
      }

      case TraceOp::SpecRevoke: {
        ++instructions;
        ++pc;
        specIdReg.reset();
        return chargeIssue();
      }

      case TraceOp::LockAcq: {
        ++instructions;
        ++pc;
        const unsigned lock_id = static_cast<unsigned>(instr.addr);
        state = State::Waiting;
        waitingLockId = lock_id;
        const std::uint64_t gen = generation;
        locks.acquire(lock_id, id, [this, lock_id, gen] {
            if (gen != generation) {
                // Granted after this FASE aborted: give it back.
                locks.release(lock_id, id);
                return;
            }
            waitingLockId.reset();
            fasesLocks.push_back(lock_id);
            memsys.onLockAcquire(id, lock_id);
            resume();
        });
        return false;
      }

      case TraceOp::LockRel: {
        if (barriersOutstanding > 0) {
            // The FASE's durability barrier must complete before its
            // effects become visible to other threads.
            waitingBarrier = true;
            return false;
        }
        ++instructions;
        ++pc;
        const unsigned lock_id = static_cast<unsigned>(instr.addr);
        memsys.onLockRelease(id, lock_id);
        locks.release(lock_id, id);
        std::erase(fasesLocks, lock_id);
        return chargeIssue();
      }

      case TraceOp::FaseBegin: {
        if (barriersOutstanding > 0) {
            // The previous FASE's durability barrier must land
            // before a new failure-atomic section opens; this also
            // bounds post-barrier runahead to the inter-FASE work.
            waitingBarrier = true;
            return false;
        }
        ++instructions;
        insideFase = true;
        faseBeginPc = pc;
        faseBeginTick = curTick();
        if (specProf && specProf->enabled()) {
            faseSite = specProf->site("pc:" + std::to_string(pc));
            specProf->recordExecution(faseSite);
            faseStores = 0;
            faseBlocks.clear();
        }
        PMEMSPEC_TRACE(traceMgr, FlagCore,
                       trace::EventKind::CoreFaseBegin, curTick(), id, 0,
                       {.arg = pc});
        ++pc;
        return true;
      }

      case TraceOp::FaseEnd: {
        ++instructions;
        ++pc;
        if (barriersOutstanding > 0) {
            // The marker retires, but the FASE only commits -- and
            // stops being abortable -- once its barrier completes.
            faseClosePending = true;
        } else {
            closeFase();
        }
        return true;
      }
    }
    panic("unhandled trace op");
}

void
Core::closeFase()
{
    insideFase = false;
    faseClosePending = false;
    ++fases;
    faseLatency.sample(
        static_cast<double>(curTick() - faseBeginTick) / ticksPerNs);
    if (specProf && specProf->enabled()) {
        specProf->recordCommit(faseSite, faseStores, faseBlocks.size());
        specProf->recordResidency(faseSite, curTick() - faseBeginTick);
    }
    PMEMSPEC_TRACE(traceMgr, FlagCore, trace::EventKind::CoreFaseCommit,
                   curTick(), id, 0,
                   {.arg = (curTick() - faseBeginTick) / ticksPerNs});
}

void
Core::onBarrierDone(std::uint64_t gen)
{
    panic_if(barriersOutstanding == 0, "barrier ack underflow");
    --barriersOutstanding;
    if (maybeFinishAbort())
        return;
    if (gen != generation)
        return;
    if (faseClosePending && barriersOutstanding == 0)
        closeFase();
    if (waitingBarrier && barriersOutstanding == 0) {
        waitingBarrier = false;
        if (state == State::Running)
            requestAdvance();
    }
    finishIfQuiesced();
}

void
Core::onLoadDone(bool dependent, std::uint64_t gen)
{
    panic_if(outstandingLoads == 0, "load completion underflow");
    --outstandingLoads;
    if (maybeFinishAbort())
        return;
    if (gen != generation)
        return;
    if (dependent && state == State::Waiting) {
        resume();
        return;
    }
    if (waitingLoadSlot) {
        waitingLoadSlot = false;
        if (state == State::Running)
            requestAdvance();
    }
    finishIfQuiesced();
}

void
Core::pushSq(Addr addr, bool is_clwb)
{
    sq.push_back(SqEntry{addr, specIdReg, is_clwb});
    pumpSq();
}

void
Core::pumpSq()
{
    if (sqDraining || sq.empty())
        return;
    sqDraining = true;
    const SqEntry &head = sq.front();
    if (head.isClwb) {
        // CLWB retires from the SQ once issued; the flush proceeds
        // asynchronously and a later SFENCE waits for its ack.
        ++clwbOutstanding;
        memsys.clwb(id, head.addr, [this] {
            panic_if(clwbOutstanding == 0, "clwb ack underflow");
            --clwbOutstanding;
            if (maybeFinishAbort())
                return;
            wakeDrainWaiters();
            finishIfQuiesced();
        });
        schedule(After{clock.period()}, [this] { onSqHeadDone(); });
    } else {
        memsys.store(id, head.addr, head.specId,
                     [this] { onSqHeadDone(); });
    }
}

void
Core::onSqHeadDone()
{
    panic_if(sq.empty(), "SQ drain completion with empty SQ");
    sq.pop_front();
    sqDraining = false;

    if (state == State::Aborting) {
        // Pending barrier/fence continuations must still fire so the
        // barrier count can drain and the abort can quiesce.
        wakeDrainWaiters();
        pumpSq();
        maybeFinishAbort();
        return;
    }
    if (waitingSqSlot) {
        waitingSqSlot = false;
        if (state == State::Running)
            requestAdvance();
    }
    wakeDrainWaiters();
    finishIfQuiesced();
    pumpSq();
}

void
Core::wakeDrainWaiters()
{
    if (drained())
        drainWaiters.wake();
}

void
Core::abortCurrentFase(Tick penalty)
{
    if (!insideFase || state == State::Aborting)
        return;
    ++aborts;
    if (specProf && specProf->enabled())
        specProf->recordAbort(faseSite, observe::AbortCause::Misspec);
    state = State::Aborting;
    abortPenalty = penalty;
    PMEMSPEC_TRACE(traceMgr, FlagCore, trace::EventKind::CoreFaseAbort,
                   curTick(), id, 0, {.arg = penalty});
    // A FASE blocked on a lock abandons the wait.
    if (waitingLockId) {
        locks.cancelWait(*waitingLockId, id);
        waitingLockId.reset();
    }
    maybeFinishAbort();
}

bool
Core::maybeFinishAbort()
{
    if (state != State::Aborting)
        return false;
    if (quiesced())
        finishAbort(); // else still draining in-flight work
    return true;
}

void
Core::finishAbort()
{
    // Invalidate wakes and in-flight grants from the aborted epoch.
    ++generation;
    // The abort handler releases the FASE's locks so other threads
    // can make progress while this one re-executes (Section 6.1.2).
    for (unsigned lock_id : fasesLocks)
        locks.release(lock_id, id);
    fasesLocks.clear();
    drainWaiters.clear();
    waitingLoadSlot = false;
    waitingSqSlot = false;
    waitingBarrier = false;
    specIdReg.reset();
    pc = faseBeginPc;
    insideFase = false;
    faseClosePending = false;
    state = State::Waiting;
    schedule(After{abortPenalty}, [this] { resume(); });
}

} // namespace pmemspec::cpu
