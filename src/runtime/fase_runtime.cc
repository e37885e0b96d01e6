#include "fase_runtime.hh"

#include <string>

#include "common/logging.hh"

namespace pmemspec::runtime
{

Transaction::Transaction(PersistentMemory &pm_, UndoLog &log_,
                         FaseRuntime &rt, unsigned tid_)
    : pm(pm_), log(log_), runtime(rt), threadId(tid_),
      profiling(rt.profile && rt.profile->enabled())
{
}

void
Transaction::poll()
{
    if (runtime.recoveryPolicy == RecoveryPolicy::Eager &&
        runtime.threads[threadId].misspecFlag) {
        throw AbortException{runtime.os.mailbox()};
    }
}

void
Transaction::write(Addr a, const void *src, std::size_t n)
{
    poll();
    if (runtime.logGranularity == LogGranularity::Word) {
        // Mnemosyne-style raw log: every write is logged, no
        // deduplication.
        log.logRange(a, n);
    } else {
        // Log every touched block once (block-granular undo).
        for (Addr b = blockAlign(a); b < a + n; b += blockBytes) {
            if (loggedBlocks.insert(b).second)
                log.logRange(b, blockBytes);
        }
    }
    if (profiling) {
        ++profWrites;
        for (Addr b = blockAlign(a); b < a + n; b += blockBytes)
            profDirty.insert(b);
    }
    pm.write(a, src, n);
}

void
Transaction::writeU64(Addr a, std::uint64_t v)
{
    write(a, &v, sizeof(v));
}

void
Transaction::writeU32(Addr a, std::uint32_t v)
{
    write(a, &v, sizeof(v));
}

void
Transaction::read(Addr a, void *dst, std::size_t n)
{
    poll();
    pm.read(a, dst, n);
}

std::uint64_t
Transaction::readU64(Addr a)
{
    std::uint64_t v;
    read(a, &v, sizeof(v));
    return v;
}

std::uint32_t
Transaction::readU32(Addr a)
{
    std::uint32_t v;
    read(a, &v, sizeof(v));
    return v;
}

std::uint64_t
Transaction::readU64Dep(Addr a)
{
    poll();
    return pm.readU64Dep(a);
}

FaseRuntime::FaseRuntime(PersistentMemory &pm_, VirtualOs &os_,
                         unsigned num_threads, RecoveryPolicy policy,
                         std::size_t log_bytes_per_thread,
                         LogGranularity granularity)
    : pm(pm_), os(os_), recoveryPolicy(policy),
      logGranularity(granularity)
{
    fatal_if(num_threads == 0, "runtime needs at least one thread");
    threads.reserve(num_threads);
    for (unsigned t = 0; t < num_threads; ++t) {
        Addr region = pm.alloc(log_bytes_per_thread, 64);
        UndoLog log(pm, region, log_bytes_per_thread, t);
        log.reset();
        threads.emplace_back(std::move(log));
    }
    // Register with the OS: handler + the PM region reverse-mapping.
    pid_ = os.registerProcess(
        [this](Addr fault) { onMisspecSignal(fault); });
    os.registerRegion(pid_, 1, pm.size() - 1);
}

FaseRuntime::~FaseRuntime()
{
    os.unregisterProcess(pid_);
}

void
FaseRuntime::onMisspecSignal(Addr fault_addr)
{
    // Flag every thread currently executing a FASE; threads outside
    // FASEs are untouched (Section 6.2.1).
    std::uint64_t flagged = 0;
    for (auto &t : threads) {
        if (t.inFase) {
            t.misspecFlag = true;
            ++flagged;
        }
    }
    PMEMSPEC_TRACE(traceMgr, FlagFaseRuntime, trace::EventKind::RtTrap,
                   traceMgr ? traceMgr->now() : 0, trace::kNoCore,
                   fault_addr, {.arg = flagged});
    if (traceMgr)
        lastTrapWindow = traceMgr->formatTail(16);
}

void
FaseRuntime::accumulate(RecoveryReport &rep, unsigned tid,
                        const UndoRecoveryResult &r)
{
    rep.entriesReplayed += r.replayed;
    rep.entriesDiscardedTorn += r.discardedTorn;
    rep.entriesDiscardedCorrupt += r.discardedCorrupt;
    rep.poisonedWordsQuarantined += r.poisonedQuarantined;
    if (!r.consistent) {
        rep.consistent = false;
        rep.diagnostics.push_back(
            "thread " + std::to_string(tid) + ": " +
            (r.detail.empty() ? std::string("log corrupt") : r.detail));
    }
}

void
FaseRuntime::abortFase(unsigned tid)
{
    ThreadState &ts = threads[tid];
    // Undo both volatile and non-volatile intermediate data: the log
    // restores old values through regular PM writes and then makes
    // the restoration durable.
    const UndoRecoveryResult r = ts.log.recover();
    ts.inFase = false;
    ++aborted;
    PMEMSPEC_TRACE(traceMgr, FlagFaseRuntime, trace::EventKind::RtAbort,
                   traceMgr ? traceMgr->now() : 0, tid, 0,
                   {.arg = r.replayed});
    if (!r.consistent) {
        // The log of a *live* FASE failed verification: injected (or
        // real) media faults hit it mid-run. Same fail-safe as crash
        // recovery -- refuse to continue on a state we cannot trust.
        RecoveryReport rep;
        accumulate(rep, tid, r);
        rep.trapWindow = lastTrapWindow;
        lastReport = rep;
        if (traceMgr && traceMgr->config().flightRecorder)
            traceMgr->dump(stderr);
        throw UnrecoverableCorruption{std::move(rep)};
    }
}

void
FaseRuntime::setAbortBudget(std::uint64_t budget)
{
    fatal_if(budget == 0, "abort budget must be >= 1");
    abortBudget_ = budget;
}

void
FaseRuntime::runFase(unsigned tid, const FaseFn &fn,
                     unsigned profile_site)
{
    fatal_if(tid >= threads.size(), "bad thread id %u", tid);
    ThreadState &ts = threads[tid];
    panic_if(ts.inFase, "nested FASE on thread %u", tid);

    const bool prof = profile && profile->enabled();

    // Abort, then either retry (the common case) or -- once this
    // invocation's budget is gone -- fail with diagnostics instead
    // of livelocking on a FASE that re-races forever.
    std::uint64_t invocation_aborts = 0;
    auto abortOrGiveUp = [&] {
        abortFase(tid);
        if (++invocation_aborts >= abortBudget_) {
            const Addr fault = os.mailbox();
            // The final attempt's abort is attributed to the budget,
            // not misspeculation, so per-site aborts partition as
            // executions = commits + aborts_total.
            if (prof)
                profile->recordAbort(profile_site,
                                     observe::AbortCause::Budget);
            // Under a service soak (MisspecStorm faults) this fires per
            // shard per storm; one line is diagnosis, thousands are
            // noise -- the profile carries the per-site counts.
            warn_once("FASE on thread %u aborted %llu times without "
                      "committing (last fault addr %#llx); giving up "
                      "(further budget trips logged once; see the "
                      "speculation profile for counts)",
                      tid,
                      static_cast<unsigned long long>(invocation_aborts),
                      static_cast<unsigned long long>(fault));
            throw AbortBudgetExhausted{tid, fault, invocation_aborts};
        }
        if (prof)
            profile->recordAbort(profile_site,
                                 observe::AbortCause::Misspec);
    };

    for (;;) {
        // A thread clears its own flag when it begins a new FASE.
        ts.misspecFlag = false;
        ts.inFase = true;
        if (prof)
            profile->recordExecution(profile_site);
        Transaction tx(pm, ts.log, *this, tid);
        try {
            fn(tx);
        } catch (const AbortException &) {
            abortOrGiveUp();
            continue;
        } catch (const PowerLoss &) {
            // The cut already rebooted the PM; re-running the FASE
            // would hide the crash from whoever runs recovery.
            ts.inFase = false;
            throw;
        } catch (...) {
            // Lazy recovery: exceptions caused by stale data are
            // suppressed if the flag is set (Section 6.2.1);
            // otherwise they are real bugs and propagate.
            if (ts.misspecFlag) {
                abortOrGiveUp();
                continue;
            }
            ts.inFase = false;
            throw;
        }
        // Commit point: the lazy scheme checks the flag here.
        if (ts.misspecFlag) {
            abortOrGiveUp();
            continue;
        }
        ts.log.commit();
        // Durability barrier at FASE end (spec-barrier / dfence /
        // SFENCE, depending on the design).
        pm.persistAll();
        ts.inFase = false;
        ++committed;
        if (prof)
            profile->recordCommit(profile_site, tx.writesLogged(),
                                  tx.dirtyBlockCount());
        PMEMSPEC_TRACE(traceMgr, FlagFaseRuntime,
                       trace::EventKind::RtCommit,
                       traceMgr ? traceMgr->now() : 0, tid, 0,
                       {.arg = invocation_aborts});
        return;
    }
}

RecoveryReport
FaseRuntime::recoverAll()
{
    RecoveryReport rep;
    unsigned tid = 0;
    for (auto &t : threads) {
        // Run recovery unconditionally: even with zero durable
        // entries (the crash cut before the first count bump), the
        // log's volatile write cursor must be resynchronised with
        // the durable image, or the next FASE would append entries
        // where recovery will not look for them.
        accumulate(rep, tid, t.log.recover());
        t.inFase = false;
        t.misspecFlag = false;
        ++tid;
    }
    // Attach the flight window around the last trap: crash-recovery
    // post-mortems see what the hardware observed just before it.
    rep.trapWindow = lastTrapWindow;
    PMEMSPEC_TRACE(traceMgr, FlagFaseRuntime,
                   trace::EventKind::RtRecovery,
                   traceMgr ? traceMgr->now() : 0, trace::kNoCore, 0,
                   {.arg = rep.entriesReplayed});
    lastReport = rep;
    if (!rep.consistent) {
        // Fail-safe verdict: at least one log refused its replay, so
        // the durable image is not a FASE boundary and must not be
        // served. The corrupt logs were left un-truncated for
        // diagnosis.
        for (const auto &d : rep.diagnostics)
            warn("unrecoverable corruption: %s", d.c_str());
        if (traceMgr && traceMgr->config().flightRecorder)
            traceMgr->dump(stderr);
        throw UnrecoverableCorruption{rep};
    }
    return rep;
}

} // namespace pmemspec::runtime
