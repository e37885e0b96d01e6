/**
 * @file
 * Persistent chained hashmap for the Hashmap microbenchmark
 * (Table 4): "read/update values in a hashmap". Also the substrate
 * for TATP's subscriber index and the memcached-like KV store.
 */

#ifndef PMEMSPEC_PMDS_PM_HASHMAP_HH
#define PMEMSPEC_PMDS_PM_HASHMAP_HH

#include <cstdint>
#include <optional>

#include "runtime/fase_runtime.hh"
#include "runtime/persistent_memory.hh"

namespace pmemspec::pmds
{

/** A failure-atomic chained hashmap: u64 key -> u64 value. */
class PmHashmap
{
  public:
    PmHashmap(runtime::PersistentMemory &pm, std::size_t num_buckets);

    /** PM bytes the constructor and the puts of `keys` distinct keys
     *  allocate (allocBound() sums; erased nodes are not reused). */
    static std::size_t footprint(std::size_t num_buckets,
                                 std::size_t keys);

    /** Insert or update, failure-atomically. */
    void put(runtime::Transaction &tx, std::uint64_t key,
             std::uint64_t value);

    /** Transactional lookup (dependent pointer chase). */
    std::optional<std::uint64_t> get(runtime::Transaction &tx,
                                     std::uint64_t key);

    /** Failure-atomic removal. @return true if the key existed. */
    bool erase(runtime::Transaction &tx, std::uint64_t key);

    /** Non-transactional lookup for checkers / setup. */
    std::optional<std::uint64_t> lookup(std::uint64_t key) const;

    /** Total keys currently stored (walks every chain). */
    std::size_t size() const;

    /** Every key hashes into the bucket that chains it. */
    bool checkInvariants() const;

    std::size_t buckets() const { return numBuckets; }

    /** Bucket a key hashes to (used for striped locking). */
    std::size_t bucketOf(std::uint64_t key) const
    {
        return bucketIndex(key);
    }

  private:
    // Node layout: [key:8][value:8][next:8]
    static constexpr std::size_t nodeBytes = 24;

    std::size_t bucketIndex(std::uint64_t key) const;
    Addr bucketAddr(std::size_t b) const;

    runtime::PersistentMemory &pm;
    Addr table; ///< array of numBuckets head pointers
    std::size_t numBuckets;
};

} // namespace pmemspec::pmds

#endif // PMEMSPEC_PMDS_PM_HASHMAP_HH
