/**
 * @file
 * Discrete-event simulation kernel.
 *
 * The entire timing model is driven by one EventQueue per simulated
 * machine. Components schedule callables at absolute ticks or relative
 * to now (the unified schedule() overload set below); events at equal
 * ticks execute in insertion order (a stable tie-break keeps the
 * simulation deterministic). A scheduled event always runs: there is
 * no cancellation, so schedule() hands back nothing.
 *
 * The implementation is built for throughput -- the event kernel is
 * the hot loop of every sweep, crash exploration and service run:
 *
 *  - Event records are 96-byte slots in a chunked arena (stable
 *    addresses, no per-event allocation) with a free list. Callables
 *    up to kInlineBytes are stored inline in the record; larger or
 *    over-aligned ones fall back to one heap box. The record's invoke
 *    pointer runs the callable and destroys it in one call.
 *  - Pending events are organised as a calendar queue: a ring of
 *    power-of-two buckets, each covering kDayTicks of simulated time,
 *    plus a far-future binary heap for events beyond the ring horizon.
 *    A bitmap over the buckets makes "find the next non-empty day" a
 *    couple of word scans.
 *  - The common cases are inline in this header: a schedule into an
 *    empty bucket or onto a bucket's tail, and a pop while no far
 *    event is pending. Chain walks, window moves and the far set stay
 *    out of line in event_queue.cc.
 *  - Far events that arrive in ascending (when, seq) order -- a
 *    pre-scheduled arrival stream such as a service's client tape --
 *    queue in a sorted FIFO run beside the far heap, so they enter
 *    and leave in O(1) instead of O(log n).
 *
 * Execution order is the total order (when, seq): identical to the
 * binary-heap kernel this replaces, so simulation results are
 * bit-for-bit unchanged.
 */

#ifndef PMEMSPEC_SIM_EVENT_QUEUE_HH
#define PMEMSPEC_SIM_EVENT_QUEUE_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <deque>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/types.hh"

namespace pmemspec::sim
{

/**
 * Relative-delay operand of the unified schedule() overload set:
 * schedule(After{d}, f) runs f at now() + d. A distinct type (rather
 * than a second method name) keeps one spelling for "make this happen"
 * and lets call sites switch between absolute and relative scheduling
 * without renaming.
 */
struct After
{
    Tick delta;
};

/** Tick-ordered calendar queue of callables; the heart of the
 *  simulator. */
class EventQueue
{
  public:
    /** Inline storage per event record; callables larger than this are
     *  boxed on the heap (rare -- captures are this + a few words). */
    static constexpr std::size_t kInlineBytes = 56;

    EventQueue();
    ~EventQueue();

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return curTick; }

    /** Schedule a callable at an absolute tick (>= now). */
    template <typename F>
    void
    schedule(Tick when, F &&f)
    {
        emplace(when, std::forward<F>(f));
    }

    /** Schedule a callable delta ticks from now. */
    template <typename F>
    void
    schedule(After d, F &&f)
    {
        emplace(curTick + d.delta, std::forward<F>(f));
    }

    /** @return true when no events remain. */
    bool empty() const { return numPending == 0; }

    /** Number of pending events. */
    std::size_t pending() const { return numPending; }

    /** Execute the earliest event. @return false if queue was empty. */
    bool
    step()
    {
        if (numPending == 0)
            return false;
        const std::uint32_t idx = farCount != 0 ? popMinFar() : popRing();
        // Chunks never move, so `s` stays valid while the callable
        // schedules (and perhaps grows the arena); the slot itself is
        // not reused before it is freed below.
        Slot &s = slotAt(idx);
        curTick = s.when;
        ++numExecuted;
        s.invoke(s.buf);
        s.next = freeHead;
        freeHead = idx;
        return true;
    }

    /** Run every event at or before the given tick. */
    void runUntil(Tick t);

    /** Run until the queue drains. */
    void run();

    /** Run until the queue drains or the event budget is exhausted.
     *  @return true if the queue drained. */
    bool run(std::uint64_t max_events);

    /** Total events executed so far. */
    std::uint64_t executed() const { return numExecuted; }

  private:
    static constexpr std::uint32_t kNil = 0xffffffffu;

    /** Calendar geometry: a "day" is 2^kDayShift ticks (~0.25ns), the
     *  ring spans kBuckets days (~1us). Nearly every latency in the
     *  machine (cache hits, device reads, persist paths, speculation
     *  windows) lands inside the ring; only coarse timers (service
     *  arrival processes, fault schedules) take the far heap. Narrow
     *  days keep the sorted per-bucket chains short: 98% of the timing
     *  machine's inserts land in an empty bucket or on a tail. */
    static constexpr unsigned kDayShift = 8;
    static constexpr std::uint32_t kBuckets = 4096;
    static constexpr std::uint32_t kBucketMask = kBuckets - 1;
    static constexpr std::uint32_t kBitWords = kBuckets / 64;

    /** Arena chunking: slot i lives at chunks[i >> kChunkShift]. */
    static constexpr unsigned kChunkShift = 8;
    static constexpr std::uint32_t kChunkSlots = 1u << kChunkShift;
    static constexpr std::uint32_t kChunkMask = kChunkSlots - 1;

    /** One arena-resident event record. */
    struct Slot
    {
        Tick when;
        std::uint64_t seq;
        std::uint32_t next; ///< bucket chain link / free-list link
        /** Run the stored callable, then destroy it. */
        void (*invoke)(void *);
        /** Destroy the stored callable without running it (the queue
         *  dies with the event pending); null for trivial types. */
        void (*destroy)(void *);
        alignas(void *) unsigned char buf[kInlineBytes];
    };
    static_assert(sizeof(Slot) == 96, "one and a half host cache lines");

    struct Bucket
    {
        std::uint32_t head = kNil;
        std::uint32_t tail = kNil; ///< meaningless while head is kNil
    };

    // --- callable storage -------------------------------------------

    template <typename F>
    static void
    invokeInline(void *p)
    {
        F &f = *static_cast<F *>(p);
        f();
        if constexpr (!std::is_trivially_destructible_v<F>)
            f.~F();
    }

    template <typename F>
    static void
    destroyInline(void *p)
    {
        static_cast<F *>(p)->~F();
    }

    template <typename F>
    static void
    invokeBoxed(void *p)
    {
        F *boxed;
        std::memcpy(&boxed, p, sizeof(boxed));
        (*boxed)();
        delete boxed;
    }

    template <typename F>
    static void
    destroyBoxed(void *p)
    {
        F *boxed;
        std::memcpy(&boxed, p, sizeof(boxed));
        delete boxed;
    }

    template <typename F>
    void
    emplace(Tick when, F &&f)
    {
        using Fn = std::decay_t<F>;
        if (when < curTick) [[unlikely]]
            pastPanic(when);
        if (freeHead == kNil) [[unlikely]]
            growArena();
        const std::uint32_t idx = freeHead;
        Slot &s = slotAt(idx);
        freeHead = s.next;
        s.when = when;
        s.seq = nextSeq++;
        if constexpr (sizeof(Fn) <= kInlineBytes &&
                      alignof(Fn) <= alignof(void *)) {
            ::new (static_cast<void *>(s.buf)) Fn(std::forward<F>(f));
            s.invoke = &invokeInline<Fn>;
            s.destroy = std::is_trivially_destructible_v<Fn>
                            ? nullptr
                            : &destroyInline<Fn>;
        } else {
            Fn *boxed = new Fn(std::forward<F>(f));
            std::memcpy(s.buf, &boxed, sizeof(boxed));
            s.invoke = &invokeBoxed<Fn>;
            s.destroy = &destroyBoxed<Fn>;
        }
        link(idx, s);
    }

    /** File a freshly scheduled slot: inline for an empty bucket or a
     *  tail append, out of line for anything else. */
    void
    link(std::uint32_t idx, Slot &s)
    {
        const std::uint64_t day = s.when >> kDayShift;
        if (numPending == 0) {
            // Empty queue: re-anchor the ring window at this event.
            baseDay = day;
        } else if (day < baseDay) [[unlikely]] {
            // Earlier than the window (the queue was anchored on an
            // event scheduled ahead of now): lower the window onto it.
            lowerBase(day);
        }
        ++numPending;
        if (day - baseDay >= kBuckets) [[unlikely]]
            farPush(idx);
        else
            ringInsert(idx, s);
    }

    /** Sorted insertion into the ring bucket for s.when. */
    void
    ringInsert(std::uint32_t idx, Slot &s)
    {
        const std::uint32_t b =
            static_cast<std::uint32_t>(s.when >> kDayShift) & kBucketMask;
        Bucket &bk = buckets[b];
        ++ringCount;
        s.next = kNil;
        if (bk.head == kNil) {
            bk.head = bk.tail = idx;
            setBit(b);
            return;
        }
        // A freshly scheduled s has the newest seq, so it belongs at
        // the tail unless it undercuts the tail's tick; a far event
        // migrating in may also undercut the tail's seq.
        Slot &tail = slotAt(bk.tail);
        if (tail.when < s.when || (tail.when == s.when && tail.seq < s.seq)) {
            tail.next = idx;
            bk.tail = idx;
            return;
        }
        chainInsert(idx, s, bk);
    }

    /** Bucket holding the earliest ring event; the ring must be
     *  non-empty. */
    std::uint32_t
    ringMinBucket() const
    {
        // All ring events have day in [baseDay, baseDay + kBuckets),
        // and each day in that window maps to a distinct bucket -- so
        // the first non-empty bucket, scanning from baseDay's and
        // wrapping, holds the earliest day, and its sorted chain head
        // is the earliest (when, seq).
        const std::uint32_t start =
            static_cast<std::uint32_t>(baseDay) & kBucketMask;
        std::uint32_t word = start >> 6;
        std::uint64_t bits =
            bucketBits[word] & (~std::uint64_t{0} << (start & 63));
        for (std::uint32_t scanned = 0; !bits; ++scanned) {
            if (scanned == kBitWords) [[unlikely]]
                ringEmptyPanic();
            word = (word + 1) & (kBitWords - 1);
            bits = bucketBits[word];
        }
        return (word << 6) +
               static_cast<std::uint32_t>(__builtin_ctzll(bits));
    }

    /** Detach the earliest ring event while the far set is empty. */
    std::uint32_t popRing() { return popHead(ringMinBucket()); }

    /** Detach the head of bucket b, the global minimum. */
    std::uint32_t
    popHead(std::uint32_t b)
    {
        Bucket &bk = buckets[b];
        const std::uint32_t idx = bk.head;
        const Slot &s = slotAt(idx);
        baseDay = s.when >> kDayShift; // keep the window anchored at now
        bk.head = s.next;
        if (bk.head == kNil)
            clearBit(b);
        --ringCount;
        --numPending;
        return idx;
    }

    Slot &slotAt(std::uint32_t i) { return chunks[i >> kChunkShift][i & kChunkMask]; }
    const Slot &slotAt(std::uint32_t i) const
    {
        return chunks[i >> kChunkShift][i & kChunkMask];
    }

    void
    setBit(std::uint32_t bucket)
    {
        bucketBits[bucket >> 6] |= std::uint64_t{1} << (bucket & 63);
    }

    void
    clearBit(std::uint32_t bucket)
    {
        bucketBits[bucket >> 6] &= ~(std::uint64_t{1} << (bucket & 63));
    }

    // --- out-of-line machinery (event_queue.cc) ---------------------

    /** Events never fire in the past. */
    [[noreturn, gnu::cold, gnu::noinline]] void pastPanic(Tick when) const;
    [[noreturn, gnu::cold, gnu::noinline]] void ringEmptyPanic() const;

    /** Add one chunk of free slots to the arena. */
    [[gnu::noinline]] void growArena();

    /** Sorted insertion of s into the non-empty bucket bk, walking its
     *  chain from the head. */
    [[gnu::noinline]] void chainInsert(std::uint32_t idx, Slot &s,
                                       Bucket &bk);

    /** Move the window down to start at `day` (< baseDay), sending
     *  ring events beyond its new end to the far set. */
    void lowerBase(std::uint64_t day);

    /** Earliest (when) of any pending event; numPending != 0. */
    Tick peekMin() const;

    /** Detach the global minimum while the far set is non-empty. */
    std::uint32_t popMinFar();

    /** File a far event into the far run or the far heap. */
    void farPush(std::uint32_t idx);
    /** Earliest far entry, heap top or run front. */
    std::uint32_t farTop() const;
    /** Detach farTop() and file it into the ring (advances baseDay). */
    void migrateFarMin();

    void heapPush(std::uint32_t idx);
    std::uint32_t heapPop();

    bool farLess(std::uint32_t a, std::uint32_t b) const;

    // --- state ------------------------------------------------------

    std::vector<std::unique_ptr<Slot[]>> chunks;
    std::uint32_t freeHead = kNil;

    std::array<Bucket, kBuckets> buckets;
    /** One bit per bucket: set while the bucket chain is non-empty. */
    std::array<std::uint64_t, kBitWords> bucketBits{};
    /** All ring events have day in [baseDay, baseDay + kBuckets);
     *  baseDay <= the day of every pending event. */
    std::uint64_t baseDay = 0;
    std::size_t ringCount = 0;

    /** Far-future events (day >= baseDay + kBuckets at insert time)
     *  are split between a binary min-heap of slot indices ordered by
     *  (when, seq) and the far run: slot indices sorted by (when, seq),
     *  appended at the back and popped at the front. An insert joins
     *  the run unless it precedes more than kRunEvict of the run's
     *  tail entries; the ones it precedes move to the heap. So a few
     *  stray events filed before an ascending stream (a service's
     *  fault schedule before its tape) cost a few heap pushes, and a
     *  late insert ahead of a long stream goes to the heap alone. */
    static constexpr std::size_t kRunEvict = 16;
    std::vector<std::uint32_t> farHeap;
    std::deque<std::uint32_t> farRun;
    /** Events in farHeap and farRun together. */
    std::size_t farCount = 0;

    Tick curTick = 0;
    std::uint64_t nextSeq = 0;
    std::uint64_t numExecuted = 0;
    std::size_t numPending = 0;
};

} // namespace pmemspec::sim

namespace pmemspec
{
using sim::After; // as fundamental to components as Tick itself
} // namespace pmemspec

#endif // PMEMSPEC_SIM_EVENT_QUEUE_HH
