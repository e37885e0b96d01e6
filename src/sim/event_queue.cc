#include "event_queue.hh"

#include "common/logging.hh"

namespace pmemspec::sim
{

EventQueue::EventQueue()
    : buckets(kBuckets), bucketBits(kBuckets / 64, 0)
{
}

EventQueue::~EventQueue()
{
    // Destroy callables still pending (ring chains hold only live
    // slots; the far heap and run may also hold lazily-cancelled
    // ones).
    for (std::uint32_t b = 0; b < kBuckets; ++b) {
        for (std::uint32_t i = buckets[b].head; i != kNil;) {
            Slot &s = slotAt(i);
            if (s.destroy)
                s.destroy(s.buf);
            i = s.next;
        }
    }
    auto destroyFar = [this](std::uint32_t i) {
        Slot &s = slotAt(i);
        if (s.invoke && s.destroy)
            s.destroy(s.buf);
    };
    for (std::uint32_t i : farHeap)
        destroyFar(i);
    for (std::uint32_t i : farRun)
        destroyFar(i);
}

void
EventQueue::checkNotPast(Tick when) const
{
    panic_if(when < curTick,
             "scheduling event in the past (when=%llu now=%llu)",
             static_cast<unsigned long long>(when),
             static_cast<unsigned long long>(curTick));
}

std::uint32_t
EventQueue::allocSlot()
{
    if (freeHead == kNil) {
        // Grow the arena by one chunk and chain it onto the free list.
        auto chunk = std::make_unique<Slot[]>(kChunkSlots);
        const std::uint32_t base = slotCount;
        for (std::uint32_t i = 0; i < kChunkSlots; ++i) {
            chunk[i].gen = 0;
            chunk[i].where = Where::Free;
            chunk[i].invoke = nullptr;
            chunk[i].destroy = nullptr;
            chunk[i].next = (i + 1 < kChunkSlots) ? base + i + 1 : kNil;
        }
        chunks.push_back(std::move(chunk));
        slotCount += kChunkSlots;
        freeHead = base;
    }
    const std::uint32_t idx = freeHead;
    freeHead = slotAt(idx).next;
    return idx;
}

void
EventQueue::freeSlot(std::uint32_t idx)
{
    Slot &s = slotAt(idx);
    s.invoke = nullptr;
    s.destroy = nullptr;
    s.where = Where::Free;
    ++s.gen; // invalidate every outstanding EventRef to this slot
    s.next = freeHead;
    freeHead = idx;
}

void
EventQueue::setBit(std::uint32_t bucket)
{
    bucketBits[bucket >> 6] |= std::uint64_t{1} << (bucket & 63);
}

void
EventQueue::clearBit(std::uint32_t bucket)
{
    bucketBits[bucket >> 6] &= ~(std::uint64_t{1} << (bucket & 63));
}

void
EventQueue::link(std::uint32_t idx, Slot &s)
{
    const std::uint64_t day = s.when >> kDayShift;
    if (numPending == 0) {
        // Empty queue: re-anchor the ring window at this event.
        baseDay = day;
    } else if (day < baseDay) {
        // Earlier than the window (the queue was anchored on an event
        // scheduled ahead of now): lower the window onto this event.
        lowerBase(day);
    }
    ++numPending;
    if (day - baseDay < kBuckets) {
        ringInsert(idx, s);
    } else {
        s.where = Where::Far;
        farPush(idx);
        ++farLive;
    }
}

void
EventQueue::lowerBase(std::uint64_t day)
{
    // Each bucket chain holds a single day, so a chain either still
    // fits the lowered window or moves to the far set whole; left in
    // the ring it would alias an earlier day of the new window.
    for (std::uint32_t w = 0; w < bucketBits.size(); ++w) {
        for (std::uint64_t bits = bucketBits[w]; bits; bits &= bits - 1) {
            const std::uint32_t b =
                (w << 6) + static_cast<std::uint32_t>(__builtin_ctzll(bits));
            Bucket &bk = buckets[b];
            if ((slotAt(bk.head).when >> kDayShift) - day < kBuckets)
                continue;
            for (std::uint32_t i = bk.head; i != kNil;) {
                Slot &e = slotAt(i);
                const std::uint32_t next = e.next;
                e.where = Where::Far;
                farPush(i);
                ++farLive;
                --ringCount;
                i = next;
            }
            bk.head = bk.tail = kNil;
            clearBit(b);
        }
    }
    baseDay = day;
}

void
EventQueue::ringInsert(std::uint32_t idx, Slot &s)
{
    s.where = Where::Ring;
    const std::uint32_t b =
        static_cast<std::uint32_t>(s.when >> kDayShift) & kBucketMask;
    Bucket &bk = buckets[b];
    ++ringCount;
    if (bk.head == kNil) {
        bk.head = bk.tail = idx;
        s.next = kNil;
        setBit(b);
        return;
    }
    Slot &tail = slotAt(bk.tail);
    // Fast path: sequence numbers grow monotonically, so an insert
    // belongs at the tail unless it undercuts the tail's tick (a far
    // migration can; a plain schedule cannot).
    if (tail.when < s.when ||
        (tail.when == s.when && tail.seq < s.seq)) {
        tail.next = idx;
        s.next = kNil;
        bk.tail = idx;
        return;
    }
    // Walk the (short) chain for the first entry ordered after s.
    std::uint32_t prev = kNil;
    std::uint32_t cur = bk.head;
    while (cur != kNil) {
        const Slot &c = slotAt(cur);
        if (s.when < c.when || (s.when == c.when && s.seq < c.seq))
            break;
        prev = cur;
        cur = c.next;
    }
    s.next = cur;
    if (prev == kNil)
        bk.head = idx;
    else
        slotAt(prev).next = idx;
    if (cur == kNil)
        bk.tail = idx;
}

void
EventQueue::ringUnlink(std::uint32_t idx, Slot &s)
{
    const std::uint32_t b =
        static_cast<std::uint32_t>(s.when >> kDayShift) & kBucketMask;
    Bucket &bk = buckets[b];
    std::uint32_t prev = kNil;
    std::uint32_t cur = bk.head;
    while (cur != idx) {
        panic_if(cur == kNil, "event slot missing from its bucket");
        prev = cur;
        cur = slotAt(cur).next;
    }
    if (prev == kNil)
        bk.head = s.next;
    else
        slotAt(prev).next = s.next;
    if (bk.tail == idx)
        bk.tail = prev;
    if (bk.head == kNil)
        clearBit(b);
    --ringCount;
}

std::uint32_t
EventQueue::findRingMin() const
{
    // All ring events have day in [baseDay, baseDay + kBuckets), and
    // each day in that window maps to a distinct bucket -- so the
    // first non-empty bucket, scanning from baseDay's and wrapping,
    // holds the earliest day, and its sorted chain head is the
    // earliest (when, seq).
    const std::uint32_t start =
        static_cast<std::uint32_t>(baseDay) & kBucketMask;
    std::uint32_t word = start >> 6;
    std::uint64_t bits = bucketBits[word] &
                         (~std::uint64_t{0} << (start & 63));
    for (std::size_t scanned = 0; scanned <= bucketBits.size();
         ++scanned) {
        if (bits) {
            const std::uint32_t b =
                (word << 6) +
                static_cast<std::uint32_t>(__builtin_ctzll(bits));
            return buckets[b].head;
        }
        word = (word + 1) & ((kBuckets >> 6) - 1);
        bits = bucketBits[word];
    }
    panic("ring bitmap empty with ringCount=%zu", ringCount);
}

bool
EventQueue::farLess(std::uint32_t a, std::uint32_t b) const
{
    const Slot &sa = slotAt(a);
    const Slot &sb = slotAt(b);
    if (sa.when != sb.when)
        return sa.when < sb.when;
    return sa.seq < sb.seq;
}

void
EventQueue::farPush(std::uint32_t idx)
{
    const std::size_t n = farRun.size();
    std::size_t undercut = 0;
    while (undercut < n && farLess(idx, farRun[n - 1 - undercut])) {
        if (++undercut > kRunEvict) {
            heapPush(idx);
            return;
        }
    }
    for (; undercut != 0; --undercut) {
        heapPush(farRun.back());
        farRun.pop_back();
    }
    farRun.push_back(idx);
}

std::uint32_t
EventQueue::farTop() const
{
    if (farHeap.empty())
        return farRun.front();
    if (farRun.empty() || farLess(farHeap.front(), farRun.front()))
        return farHeap.front();
    return farRun.front();
}

std::uint32_t
EventQueue::farPop()
{
    const std::uint32_t top = farTop();
    if (!farRun.empty() && farRun.front() == top)
        farRun.pop_front();
    else
        heapPop();
    return top;
}

void
EventQueue::heapPush(std::uint32_t idx)
{
    farHeap.push_back(idx);
    std::size_t i = farHeap.size() - 1;
    while (i > 0) {
        const std::size_t parent = (i - 1) / 2;
        if (!farLess(farHeap[i], farHeap[parent]))
            break;
        std::swap(farHeap[i], farHeap[parent]);
        i = parent;
    }
}

std::uint32_t
EventQueue::heapPop()
{
    const std::uint32_t top = farHeap.front();
    farHeap.front() = farHeap.back();
    farHeap.pop_back();
    std::size_t i = 0;
    const std::size_t n = farHeap.size();
    while (true) {
        const std::size_t l = 2 * i + 1;
        const std::size_t r = l + 1;
        std::size_t m = i;
        if (l < n && farLess(farHeap[l], farHeap[m]))
            m = l;
        if (r < n && farLess(farHeap[r], farHeap[m]))
            m = r;
        if (m == i)
            break;
        std::swap(farHeap[i], farHeap[m]);
        i = m;
    }
    return top;
}

void
EventQueue::cleanFarTop()
{
    // Reap lazily-cancelled far events.
    while (!farHeap.empty() && !slotAt(farHeap.front()).invoke)
        freeSlot(heapPop());
    while (!farRun.empty() && !slotAt(farRun.front()).invoke) {
        freeSlot(farRun.front());
        farRun.pop_front();
    }
}

void
EventQueue::migrateFarMin()
{
    const std::uint32_t idx = farPop();
    Slot &s = slotAt(idx);
    --farLive;
    // The migrating event is the global minimum, so every pending day
    // is >= its day and re-anchoring the window on it is safe.
    baseDay = s.when >> kDayShift;
    ringInsert(idx, s);
}

std::uint32_t
EventQueue::popMin()
{
    std::uint32_t idx = kNil;
    if (farLive != 0) {
        cleanFarTop();
        bool migrate = true;
        if (ringCount != 0) {
            const Slot &ft = slotAt(farTop());
            const Slot &rm = slotAt(idx = findRingMin());
            migrate = ft.when < rm.when ||
                      (ft.when == rm.when && ft.seq < rm.seq);
        }
        if (migrate) {
            // The migrated event is the new global minimum and
            // migrateFarMin() re-anchored baseDay on it, so it heads
            // its (now earliest) bucket -- no re-scan needed.
            migrateFarMin();
            idx = buckets[static_cast<std::uint32_t>(baseDay) &
                          kBucketMask].head;
        }
    } else {
        idx = findRingMin();
    }
    Slot &s = slotAt(idx);
    baseDay = s.when >> kDayShift; // keep the window anchored at now
    const std::uint32_t b =
        static_cast<std::uint32_t>(baseDay) & kBucketMask;
    Bucket &bk = buckets[b];
    bk.head = s.next;
    if (bk.head == kNil) {
        bk.tail = kNil;
        clearBit(b);
    }
    --ringCount;
    --numPending;
    return idx;
}

bool
EventQueue::cancel(EventRef ref)
{
    if (ref.slot == kNil || ref.slot >= slotCount)
        return false;
    Slot &s = slotAt(ref.slot);
    if (s.gen != ref.gen || !s.invoke ||
        (s.where != Where::Ring && s.where != Where::Far))
        return false;
    if (s.destroy)
        s.destroy(s.buf);
    s.invoke = nullptr;
    s.destroy = nullptr;
    --numPending;
    if (s.where == Where::Ring) {
        ringUnlink(ref.slot, s);
        freeSlot(ref.slot);
    } else {
        // Far events are reaped lazily when they surface at the heap
        // top or run front; removing from the middle of either is
        // O(n).
        --farLive;
    }
    return true;
}

bool
EventQueue::scheduled(EventRef ref) const
{
    if (ref.slot == kNil || ref.slot >= slotCount)
        return false;
    const Slot &s = slotAt(ref.slot);
    return s.gen == ref.gen && s.invoke != nullptr &&
           (s.where == Where::Ring || s.where == Where::Far);
}

bool
EventQueue::step()
{
    if (numPending == 0)
        return false;
    const std::uint32_t idx = popMin();
    Slot &s = slotAt(idx);
    curTick = s.when;
    ++numExecuted;
    // Detach the callable's entry points before invoking: the callback
    // may schedule (growing the arena leaves slots in place) but a
    // cancel() of the already-running event must be a no-op.
    auto invoke = s.invoke;
    s.invoke = nullptr;
    s.where = Where::Executing;
    invoke(s.buf);
    Slot &after = slotAt(idx); // re-resolve across chunk growth
    if (after.destroy)
        after.destroy(after.buf);
    freeSlot(idx);
    return true;
}

void
EventQueue::runUntil(Tick t)
{
    while (numPending != 0) {
        // Peek the global minimum (same search step() would do).
        Tick next;
        if (farLive != 0) {
            cleanFarTop();
            if (ringCount == 0) {
                next = slotAt(farTop()).when;
            } else {
                const Slot &ft = slotAt(farTop());
                const Slot &rm = slotAt(findRingMin());
                next = ft.when < rm.when ? ft.when : rm.when;
            }
        } else {
            next = slotAt(findRingMin()).when;
        }
        if (next > t)
            break;
        step();
    }
    if (curTick < t)
        curTick = t;
}

void
EventQueue::run()
{
    while (step()) {
    }
}

bool
EventQueue::run(std::uint64_t max_events)
{
    for (std::uint64_t i = 0; i < max_events; ++i) {
        if (!step())
            return true;
    }
    return numPending == 0;
}

} // namespace pmemspec::sim
