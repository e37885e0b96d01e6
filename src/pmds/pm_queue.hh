/**
 * @file
 * Persistent FIFO queue for the Concurrent Queue microbenchmark
 * (Table 4): "insert/delete nodes in a queue".
 *
 * Singly-linked list with head/tail anchors in PM and configurable
 * value size (the paper's FASEs move 64 bytes). Nodes come from the
 * PM arena; dequeued nodes are leaked (a real system would use a
 * persistent allocator -- allocation metadata is orthogonal to the
 * persist-ordering behaviour this reproduction studies, and an
 * unlinked node is unreachable, hence harmless after a crash).
 */

#ifndef PMEMSPEC_PMDS_PM_QUEUE_HH
#define PMEMSPEC_PMDS_PM_QUEUE_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "runtime/fase_runtime.hh"
#include "runtime/persistent_memory.hh"

namespace pmemspec::pmds
{

/** A failure-atomic FIFO queue in PM. */
class PmQueue
{
  public:
    /** @param value_bytes Payload per node (first 8B carry the
     *  checker-visible value word). */
    explicit PmQueue(runtime::PersistentMemory &pm,
                     std::size_t value_bytes = 8);

    /** PM bytes the constructor and `enqueues` enqueue() calls
     *  allocate (allocBound() sums; dequeued nodes are not reused). */
    static std::size_t footprint(std::size_t value_bytes,
                                 std::uint64_t enqueues);

    /** Failure-atomic enqueue of a value word (payload zero-padded
     *  to value_bytes). */
    void enqueue(runtime::Transaction &tx, std::uint64_t value);

    /** Failure-atomic dequeue; nullopt when empty. */
    std::optional<std::uint64_t> dequeue(runtime::Transaction &tx);

    /** Walk the list and count nodes (checker). */
    std::size_t size() const;

    /** Front value without removal; nullopt when empty. */
    std::optional<std::uint64_t> front() const;

    /** Every value head-to-tail (checker / crash-oracle access). */
    std::vector<std::uint64_t> contents() const;

    /** Validate head/tail/next-pointer consistency. */
    bool checkInvariants() const;

    std::size_t valueBytes() const { return valBytes; }

  private:
    // Node layout: [next:8][value:valBytes]
    Addr allocNode(std::uint64_t value);
    Addr nextOf(Addr node) const { return pm.readU64(node); }
    Addr valueAddr(Addr node) const { return node + 8; }

    runtime::PersistentMemory &pm;
    std::size_t valBytes;
    Addr headAddr; ///< PM slot holding the head pointer
    Addr tailAddr; ///< PM slot holding the tail pointer
};

} // namespace pmemspec::pmds

#endif // PMEMSPEC_PMDS_PM_QUEUE_HH
