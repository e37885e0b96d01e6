/**
 * @file
 * Discrete-event simulation kernel.
 *
 * The entire timing model is driven by one EventQueue per simulated
 * machine. Components schedule callables at absolute ticks or relative
 * to now (the unified schedule() overload set below); events at equal
 * ticks execute in insertion order (a stable tie-break keeps the
 * simulation deterministic).
 *
 * The implementation is built for throughput -- the event kernel is
 * the hot loop of every sweep, crash exploration and service run:
 *
 *  - Event records live in a chunked slot arena (stable addresses, no
 *    per-event allocation) with a free list. Callables up to
 *    kInlineBytes are stored inline in the record (small-buffer
 *    optimization); larger ones fall back to one heap box.
 *  - Pending events are organised as a calendar queue: a ring of
 *    power-of-two buckets, each covering kDayTicks of simulated time,
 *    plus a far-future binary heap for events beyond the ring horizon.
 *    A bitmap over the buckets makes "find the next non-empty day" a
 *    couple of word scans.
 *  - Far events that arrive in ascending (when, seq) order -- a
 *    pre-scheduled arrival stream such as a service's client tape --
 *    queue in a sorted FIFO run beside the far heap, so they enter
 *    and leave in O(1) instead of O(log n).
 *  - schedule() hands back an EventRef supporting O(chain) intrusive
 *    cancellation -- no std::function wrapper, no shared generation
 *    counters.
 *
 * Execution order is the total order (when, seq): identical to the
 * binary-heap kernel this replaces, so simulation results are
 * bit-for-bit unchanged.
 */

#ifndef PMEMSPEC_SIM_EVENT_QUEUE_HH
#define PMEMSPEC_SIM_EVENT_QUEUE_HH

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

/**
 * Handle to a scheduled event, returned by schedule(). Valid until
 * the event executes or is cancelled; a default-constructed ref is
 * null. Slot indices are generation-stamped, so a stale ref held
 * across its event's execution never aliases a reused slot.
 */
struct EventRef
{
    std::uint32_t slot = 0xffffffffu;
    std::uint32_t gen = 0;

    /** @return true if this ref was ever bound to an event. */
    explicit operator bool() const { return slot != 0xffffffffu; }
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

    /**
     * Schedule a callable at an absolute tick (>= now).
     * @return a handle that can cancel the event while pending.
     */
    template <typename F>
    EventRef
    schedule(Tick when, F &&f)
    {
        return emplace(when, std::forward<F>(f));
    }

    /** Schedule a callable delta ticks from now. */
    template <typename F>
    EventRef
    schedule(After d, F &&f)
    {
        return emplace(curTick + d.delta, std::forward<F>(f));
    }

    /**
     * Cancel a pending event: its callable is destroyed immediately
     * and it will never run. @return false if the ref is null, stale,
     * or the event already executed / was already cancelled.
     */
    bool cancel(EventRef ref);

    /** @return true while the referenced event is still pending. */
    bool scheduled(EventRef ref) const;

    /** @return true when no events remain. */
    bool empty() const { return numPending == 0; }

    /** Number of pending events. */
    std::size_t pending() const { return numPending; }

    /** Execute the earliest event. @return false if queue was empty. */
    bool step();

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
     *  days keep the sorted per-bucket chains short -- chain walks in
     *  ringInsert dominate the kernel's profile when many same-day
     *  events share a bucket. */
    static constexpr unsigned kDayShift = 8;
    static constexpr std::uint32_t kBuckets = 4096;
    static constexpr std::uint32_t kBucketMask = kBuckets - 1;

    /** Arena chunking: slot i lives at chunks[i >> kChunkShift]. */
    static constexpr unsigned kChunkShift = 8;
    static constexpr std::uint32_t kChunkSlots = 1u << kChunkShift;
    static constexpr std::uint32_t kChunkMask = kChunkSlots - 1;

    enum class Where : std::uint8_t
    {
        Free,
        Ring,
        Far,
        Executing,
    };

    /** One arena-resident event record. */
    struct Slot
    {
        Tick when;
        std::uint64_t seq;
        std::uint32_t next; ///< bucket chain link / free-list link
        std::uint32_t gen;  ///< bumped at every free; stamps EventRefs
        /** Invoke the stored callable (null once cancelled or fired). */
        void (*invoke)(void *);
        /** Destroy the stored callable (null for trivial types). */
        void (*destroy)(void *);
        Where where;
        alignas(std::max_align_t) unsigned char buf[kInlineBytes];
    };

    struct Bucket
    {
        std::uint32_t head = kNil;
        std::uint32_t tail = kNil;
    };

    // --- callable storage -------------------------------------------

    template <typename F>
    static void
    invokeInline(void *p)
    {
        (*static_cast<F *>(p))();
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
    EventRef
    emplace(Tick when, F &&f)
    {
        using Fn = std::decay_t<F>;
        checkNotPast(when);
        const std::uint32_t idx = allocSlot();
        Slot &s = slotAt(idx);
        s.when = when;
        s.seq = nextSeq++;
        if constexpr (sizeof(Fn) <= kInlineBytes) {
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
        return EventRef{idx, s.gen};
    }

    // --- out-of-line machinery (event_queue.cc) ---------------------

    /** panic() unless when >= now (events never fire in the past). */
    void checkNotPast(Tick when) const;

    Slot &slotAt(std::uint32_t i) { return chunks[i >> kChunkShift][i & kChunkMask]; }
    const Slot &slotAt(std::uint32_t i) const
    {
        return chunks[i >> kChunkShift][i & kChunkMask];
    }

    /** Pop a slot off the free list, growing the arena if needed. */
    std::uint32_t allocSlot();

    /** Return a slot to the free list (bumps its generation). */
    void freeSlot(std::uint32_t idx);

    /** File a freshly initialised slot into the ring or the far heap. */
    void link(std::uint32_t idx, Slot &s);

    /** Move the window down to start at `day` (< baseDay), sending
     *  ring events beyond its new end to the far set. */
    void lowerBase(std::uint64_t day);

    /** Sorted insertion into the ring bucket for s.when. */
    void ringInsert(std::uint32_t idx, Slot &s);

    /** Unlink a live slot from its ring bucket chain. */
    void ringUnlink(std::uint32_t idx, Slot &s);

    /** Index of the earliest ring event; ring must be non-empty. */
    std::uint32_t findRingMin() const;

    /** Drop cancelled slots off the far heap's top and the far run's
     *  front; either may empty. */
    void cleanFarTop();

    /** Move the far minimum into the ring (advances baseDay). */
    void migrateFarMin();

    /** Detach the globally earliest pending event and return its slot
     *  index; numPending must be non-zero. */
    std::uint32_t popMin();

    /** File a far event into the far run or the far heap. */
    void farPush(std::uint32_t idx);
    /** Earliest far entry, heap top or run front (after cleanFarTop
     *  with farLive != 0, a live event). */
    std::uint32_t farTop() const;
    /** Detach farTop(). */
    std::uint32_t farPop();

    void heapPush(std::uint32_t idx);
    std::uint32_t heapPop();

    bool farLess(std::uint32_t a, std::uint32_t b) const;

    void setBit(std::uint32_t bucket);
    void clearBit(std::uint32_t bucket);

    // --- state ------------------------------------------------------

    std::vector<std::unique_ptr<Slot[]>> chunks;
    std::uint32_t freeHead = kNil;
    std::uint32_t slotCount = 0;

    std::vector<Bucket> buckets;
    /** One bit per bucket: set while the bucket chain is non-empty. */
    std::vector<std::uint64_t> bucketBits;
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
     *  late insert ahead of a long stream goes to the heap alone.
     *  Cancelled entries of both are reaped lazily at the top. */
    static constexpr std::size_t kRunEvict = 16;
    std::vector<std::uint32_t> farHeap;
    std::deque<std::uint32_t> farRun;
    /** Live (uncancelled) events in farHeap and farRun together. */
    std::size_t farLive = 0;

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
