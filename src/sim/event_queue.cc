#include "event_queue.hh"

#include "common/logging.hh"

namespace pmemspec::sim
{

EventQueue::EventQueue() = default;

EventQueue::~EventQueue()
{
    // Destroy callables still pending.
    auto destroy = [this](std::uint32_t i) {
        Slot &s = slotAt(i);
        if (s.destroy)
            s.destroy(s.buf);
    };
    for (const Bucket &bk : buckets) {
        if (bk.head == kNil)
            continue;
        for (std::uint32_t i = bk.head; i != kNil; i = slotAt(i).next)
            destroy(i);
    }
    for (std::uint32_t i : farHeap)
        destroy(i);
    for (std::uint32_t i : farRun)
        destroy(i);
}

void
EventQueue::pastPanic(Tick when) const
{
    panic("scheduling event in the past (when=%llu now=%llu)",
          static_cast<unsigned long long>(when),
          static_cast<unsigned long long>(curTick));
}

void
EventQueue::ringEmptyPanic() const
{
    panic("ring bitmap empty with ringCount=%zu", ringCount);
}

void
EventQueue::growArena()
{
    // Grow the arena by one chunk and chain it onto the free list.
    auto chunk = std::make_unique<Slot[]>(kChunkSlots);
    const std::uint32_t base =
        static_cast<std::uint32_t>(chunks.size()) << kChunkShift;
    for (std::uint32_t i = 0; i < kChunkSlots; ++i)
        chunk[i].next = (i + 1 < kChunkSlots) ? base + i + 1 : freeHead;
    chunks.push_back(std::move(chunk));
    freeHead = base;
}

void
EventQueue::lowerBase(std::uint64_t day)
{
    // Each bucket chain holds a single day, so a chain either still
    // fits the lowered window or moves to the far set whole; left in
    // the ring it would alias an earlier day of the new window.
    for (std::uint32_t w = 0; w < kBitWords; ++w) {
        for (std::uint64_t bits = bucketBits[w]; bits; bits &= bits - 1) {
            const std::uint32_t b =
                (w << 6) + static_cast<std::uint32_t>(__builtin_ctzll(bits));
            Bucket &bk = buckets[b];
            if ((slotAt(bk.head).when >> kDayShift) - day < kBuckets)
                continue;
            for (std::uint32_t i = bk.head; i != kNil;) {
                const std::uint32_t next = slotAt(i).next;
                farPush(i);
                --ringCount;
                i = next;
            }
            bk.head = kNil;
            clearBit(b);
        }
    }
    baseDay = day;
}

void
EventQueue::chainInsert(std::uint32_t idx, Slot &s, Bucket &bk)
{
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
    ++farCount;
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
EventQueue::migrateFarMin()
{
    const std::uint32_t idx = farTop();
    if (!farRun.empty() && farRun.front() == idx)
        farRun.pop_front();
    else
        heapPop();
    --farCount;
    Slot &s = slotAt(idx);
    // The migrating event is the global minimum, so every pending day
    // is >= its day and re-anchoring the window on it is safe.
    baseDay = s.when >> kDayShift;
    ringInsert(idx, s);
}

std::uint32_t
EventQueue::popMinFar()
{
    if (ringCount == 0 || farLess(farTop(), buckets[ringMinBucket()].head)) {
        // The migrated event is the new global minimum and
        // migrateFarMin() re-anchored baseDay on it, so it heads its
        // (now earliest) bucket -- no re-scan needed.
        migrateFarMin();
        return popHead(static_cast<std::uint32_t>(baseDay) & kBucketMask);
    }
    return popRing();
}

Tick
EventQueue::peekMin() const
{
    if (farCount == 0)
        return slotAt(buckets[ringMinBucket()].head).when;
    const Tick far = slotAt(farTop()).when;
    if (ringCount == 0)
        return far;
    const Tick ring = slotAt(buckets[ringMinBucket()].head).when;
    return far < ring ? far : ring;
}

void
EventQueue::runUntil(Tick t)
{
    while (numPending != 0 && peekMin() <= t)
        step();
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
