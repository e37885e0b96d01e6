/**
 * @file
 * Persistent array for the Array Swaps microbenchmark (Table 4):
 * "random swaps of array elements", failure-atomic via undo logging.
 * Element size is configurable; the paper's FASEs move 64 bytes of
 * data, so the benchmark uses 64-byte elements (one cache block).
 */

#ifndef PMEMSPEC_PMDS_PM_ARRAY_HH
#define PMEMSPEC_PMDS_PM_ARRAY_HH

#include <cstdint>

#include "runtime/fase_runtime.hh"
#include "runtime/persistent_memory.hh"

namespace pmemspec::pmds
{

/** A fixed-size array of fixed-size elements in PM. */
class PmArray
{
  public:
    /**
     * Allocate n elements of elem_bytes each (zero-initialised).
     * The first 8 bytes of an element carry its checksum word.
     */
    PmArray(runtime::PersistentMemory &pm, std::size_t n,
            std::size_t elem_bytes = 64);

    /** PM bytes the constructor allocates (allocBound() sums). */
    static std::size_t footprint(std::size_t n,
                                 std::size_t elem_bytes = 64);

    /** Element PM address. */
    Addr elemAddr(std::size_t i) const;

    /** Initialise element i's checksum word (setup phase). */
    void init(std::size_t i, std::uint64_t v);

    /** Failure-atomic swap of the full elements i and j. */
    void swap(runtime::Transaction &tx, std::size_t i, std::size_t j);

    /** Read element i's checksum word (checker access). */
    std::uint64_t get(std::size_t i) const;

    std::size_t size() const { return count; }
    std::size_t elemBytes() const { return elemSize; }

    /** Sum of all checksum words -- invariant under swaps. */
    std::uint64_t checksum() const;

    /** Checksum over the *persisted* image (crash-consistency). */
    std::uint64_t persistedChecksum() const;

    /**
     * Self-check entry point for crash/fault harnesses: the current
     * checksum must equal the expected sum recorded (in PM) during
     * init() -- swaps only permute elements, so any divergence means
     * a torn or half-applied swap survived recovery.
     */
    bool checkInvariants() const;

  private:
    runtime::PersistentMemory &pm;
    Addr base;
    Addr expectedSumSlot; ///< PM cell: sum of all init() values
    std::size_t count;
    std::size_t elemSize;
};

} // namespace pmemspec::pmds

#endif // PMEMSPEC_PMDS_PM_ARRAY_HH
