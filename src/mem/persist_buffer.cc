#include "persist_buffer.hh"

#include <algorithm>

#include "common/logging.hh"

namespace pmemspec::mem
{

void
GlobalDrainToken::release()
{
    busy = false;
    waiters.wake([](PersistBuffer *b) { b->pump(); });
}

PersistBuffer::PersistBuffer(sim::EventQueue &eq, StatGroup *parent,
                             CoreId core, Tick drain_latency,
                             unsigned capacity, unsigned drain_width,
                             bool strict_fifo,
                             GlobalDrainToken *global_token,
                             DeliverFn deliver_fn)
    : sim::SimObject("persistBuf" + std::to_string(core), eq, parent),
      coreId(core),
      drainLatency(drain_latency),
      capacity_(capacity),
      drainWidth(strict_fifo ? 1 : drain_width),
      strictFifo(strict_fifo),
      globalToken(global_token),
      deliver(std::move(deliver_fn)),
      pending(capacity)
{
    stats().addCounter("appends", &appends, "PM stores captured");
    stats().addCounter("coalesces", &coalesces,
                       "stores coalesced into a pending entry");
    stats().addCounter("persistsDone", &persistsDone,
                       "entries made durable at the PMC");
    stats().addCounter("ofences", &ofences, "epochs closed");
    stats().addCounter("depStalls", &depStalls,
                       "drain attempts blocked on a cross-thread dep");
    stats().addCounter("pathRetries", &pathRetries,
                       "waits for PMC write-queue admission");
    stats().addAccumulator("occupancy", &occupancyStat,
                           "buffer occupancy sampled at each append");
}

void
PersistBuffer::setFilterHooks(FilterHook on_insert, FilterHook on_remove)
{
    filterInsert = std::move(on_insert);
    filterRemove = std::move(on_remove);
}

void
PersistBuffer::setProgressHook(InplaceFn<void()> cb)
{
    progressHook = std::move(cb);
}

bool
PersistBuffer::full() const
{
    return pending.size() + inFlight.size() >= capacity_;
}

void
PersistBuffer::append(Addr block_addr)
{
    panic_if(full(), "persist buffer overflow; callers must check "
                     "full() and apply backpressure");
    occupancyStat.sample(
        static_cast<double>(pending.size() + inFlight.size()));
    ++appends;
    // Coalesce repeated stores to the same block within an epoch; the
    // buffer holds whole cache blocks, so a second store just merges.
    for (std::size_t i = 0; i < pending.size(); ++i) {
        const Entry &e = pending[i];
        if (e.addr == block_addr && e.epoch == curEpoch) {
            ++coalesces;
            return;
        }
    }
    pending.push_back(Entry{block_addr, curEpoch, seqCounter++});
    if (filterInsert)
        filterInsert(block_addr);
    pump();
}

void
PersistBuffer::ofence()
{
    ++ofences;
    ++curEpoch;
}

std::uint64_t
PersistBuffer::oldestUnpersistedSeq() const
{
    std::uint64_t oldest = std::numeric_limits<std::uint64_t>::max();
    if (!pending.empty())
        oldest = std::min(oldest, pending.front().seq);
    for (const auto &e : inFlight)
        oldest = std::min(oldest, e.seq);
    return oldest;
}

void
PersistBuffer::addDependency(const PersistBuffer *other,
                             std::uint64_t seq)
{
    if (other == this)
        return;
    if (other->oldestUnpersistedSeq() >= seq)
        return; // already satisfied
    deps.push_back(PersistDep{other, seq});
}

bool
PersistBuffer::depsSatisfied()
{
    auto it = std::remove_if(deps.begin(), deps.end(),
                             [](const PersistDep &d) {
                                 return d.other->oldestUnpersistedSeq() >=
                                        d.seq;
                             });
    deps.erase(it, deps.end());
    return deps.empty();
}

void
PersistBuffer::pump()
{
    while (!pending.empty() && inFlight.size() < drainWidth) {
        if (!depsSatisfied()) {
            ++depStalls;
            return; // retried via the machine progress hook
        }
        Entry &head = pending.front();
        // Epoch ordering: an entry may drain only when every entry of
        // earlier epochs is durable. Entries are appended in epoch
        // order, so it suffices to compare with the oldest in flight.
        for (const auto &f : inFlight) {
            if (f.epoch < head.epoch)
                return; // wait for the previous epoch to land
        }
        if (globalToken && !globalToken->tryAcquire()) {
            globalToken->waiters.add(this);
            return;
        }
        Entry e = head;
        pending.pop_front();
        inFlight.push_back(e);
        if (globalToken) {
            // One bus-injection slot serialises machine-wide flush
            // initiation; the flit itself is pipelined.
            const Tick token_hold = drainLatency / 5;
            schedule(After{token_hold}, [this] { globalToken->release(); });
        }
        schedule(After{drainLatency}, [this, addr = e.addr, seq = e.seq] {
            attemptDeliver(addr, seq);
        });
        // Space freed in `pending` may unblock an appender only after
        // the in-flight entry completes; capacity counts both.
    }
}

void
PersistBuffer::attemptDeliver(Addr addr, std::uint64_t seq)
{
    // On a full PMC write queue the PMC runs on_admit when it admits
    // the entry; until then no event is pending.
    Waiter on_admit = [this, addr, seq] { attemptDeliver(addr, seq); };
    if (deliver(coreId, addr, on_admit))
        finishOne(addr, seq);
    else
        ++pathRetries;
}

void
PersistBuffer::finishOne(Addr addr, std::uint64_t seq)
{
    auto it = std::find_if(inFlight.begin(), inFlight.end(),
                           [&](const Entry &f) { return f.seq == seq; });
    panic_if(it == inFlight.end(), "persist completion for unknown seq");
    inFlight.erase(it);
    ++persistsDone;
    if (filterRemove)
        filterRemove(addr);

    if (empty())
        emptyWaiters.wake();
    if (!full())
        spaceWaiters.wake();
    if (progressHook)
        progressHook();
    pump();
}

} // namespace pmemspec::mem
