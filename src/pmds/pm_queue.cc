#include "pm_queue.hh"

#include <vector>

#include "common/logging.hh"

namespace pmemspec::pmds
{

PmQueue::PmQueue(runtime::PersistentMemory &pm_,
                 std::size_t value_bytes)
    : pm(pm_),
      valBytes(value_bytes),
      headAddr(pm_.alloc(8, 64)),
      tailAddr(pm_.alloc(8, 8))
{
    fatal_if(value_bytes < 8, "queue values must hold a u64");
    pm.writeU64(headAddr, 0);
    pm.writeU64(tailAddr, 0);
    pm.persistAll();
}

std::size_t
PmQueue::footprint(std::size_t value_bytes, std::uint64_t enqueues)
{
    using runtime::PersistentMemory;
    return 2 * PersistentMemory::allocBound(8) +
           enqueues * PersistentMemory::allocBound(8 + value_bytes);
}

Addr
PmQueue::allocNode(std::uint64_t value)
{
    Addr node = pm.alloc(8 + valBytes, 64);
    pm.writeU64(node, 0); // next = null
    std::vector<std::uint8_t> payload(valBytes, 0);
    std::memcpy(payload.data(), &value, 8);
    pm.write(valueAddr(node), payload.data(), valBytes);
    return node;
}

void
PmQueue::enqueue(runtime::Transaction &tx, std::uint64_t value)
{
    // The fresh node is initialised outside the log (it is
    // unreachable until linked, so no undo entry is needed for it).
    const Addr node = allocNode(value);
    const Addr tail = tx.readU64Dep(tailAddr);
    if (tail == 0) {
        tx.writeU64(headAddr, node);
        tx.writeU64(tailAddr, node);
    } else {
        tx.writeU64(tail, node); // old tail's next
        tx.writeU64(tailAddr, node);
    }
}

std::optional<std::uint64_t>
PmQueue::dequeue(runtime::Transaction &tx)
{
    const Addr head = tx.readU64Dep(headAddr);
    if (head == 0)
        return std::nullopt;
    const std::uint64_t value = tx.readU64(valueAddr(head));
    const Addr next = tx.readU64Dep(head);
    tx.writeU64(headAddr, next);
    if (next == 0)
        tx.writeU64(tailAddr, 0);
    return value;
}

std::size_t
PmQueue::size() const
{
    std::size_t n = 0;
    for (Addr p = pm.readU64(headAddr); p != 0; p = nextOf(p))
        ++n;
    return n;
}

std::optional<std::uint64_t>
PmQueue::front() const
{
    const Addr head = pm.readU64(headAddr);
    if (head == 0)
        return std::nullopt;
    return pm.readU64(valueAddr(head));
}

std::vector<std::uint64_t>
PmQueue::contents() const
{
    std::vector<std::uint64_t> out;
    for (Addr p = pm.readU64(headAddr); p != 0; p = nextOf(p))
        out.push_back(pm.readU64(valueAddr(p)));
    return out;
}

bool
PmQueue::checkInvariants() const
{
    const Addr head = pm.readU64(headAddr);
    const Addr tail = pm.readU64(tailAddr);
    if ((head == 0) != (tail == 0))
        return false;
    if (head == 0)
        return true;
    // The tail must be reachable from the head and must be last.
    Addr p = head;
    std::size_t hops = 0;
    while (p != tail) {
        p = nextOf(p);
        if (p == 0)
            return false; // tail unreachable
        if (++hops > 100'000'000)
            return false; // cycle
    }
    return nextOf(tail) == 0;
}

} // namespace pmemspec::pmds
