/**
 * @file
 * Memcached-like persistent key-value store (Table 4): an in-memory
 * KV store ported to Mnemosyne-style transactions, with 1024-byte
 * values as in the paper's evaluation.
 *
 * Like the real memcached, every item sits on a global LRU list that
 * is updated on *every* access -- a GET is not read-only: it bumps
 * the item to the LRU head and increments its hit counter inside the
 * transaction (this is why memcached is persistence-intensive under
 * Mnemosyne and why the paper sees its largest speedups there). The
 * LRU list is protected by memcached's global cache lock.
 */

#ifndef PMEMSPEC_PMDS_KV_STORE_HH
#define PMEMSPEC_PMDS_KV_STORE_HH

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "pmds/pm_hashmap.hh"
#include "runtime/fase_runtime.hh"
#include "runtime/persistent_memory.hh"

namespace pmemspec::pmds
{

/** Sizing knobs. */
struct KvConfig
{
    std::size_t buckets = 4096;
    std::uint32_t valueBytes = 1024; ///< paper: 1024B for memcached
    /** Maintain the memcached LRU list on every access. */
    bool lruTracking = true;
};

/** The persistent KV store. */
class KvStore
{
  public:
    KvStore(runtime::PersistentMemory &pm, const KvConfig &cfg);

    /** PM bytes the constructor and the sets of `keys` distinct keys
     *  allocate (allocBound() sums; erased items are not reused). */
    static std::size_t footprint(const KvConfig &cfg, std::size_t keys);

    /** SET: insert or overwrite, failure-atomically; bumps LRU. */
    void set(runtime::Transaction &tx, std::uint64_t key,
             std::uint8_t fill_byte);

    /**
     * GET: read the full value and update the LRU metadata.
     * @return the fill byte if present, nullopt on miss.
     */
    std::optional<std::uint8_t> get(runtime::Transaction &tx,
                                    std::uint64_t key);

    /** DELETE. @return true if present. */
    bool erase(runtime::Transaction &tx, std::uint64_t key);

    /** Non-transactional checker read. */
    std::optional<std::uint8_t> lookup(std::uint64_t key) const;

    /** PM region of a stored item's value slab (checker / fault
     *  targeting hook); nullopt when the key is absent. */
    std::optional<std::pair<Addr, std::size_t>>
    slabRegion(std::uint64_t key) const;

    /** LRU hit count of a key (checker). */
    std::optional<std::uint64_t> hitCount(std::uint64_t key) const;

    /** Key at the LRU head (most recently used); 0 if empty. */
    std::uint64_t lruFrontKey() const;

    /** Index is sane and the LRU list links every stored item
     *  exactly once, in both directions. */
    bool checkInvariants() const;

    std::size_t size() const { return index.size(); }
    const KvConfig &config() const { return cfg; }

    /** Index bucket of a key (used for striped locking). */
    std::size_t bucketOf(std::uint64_t key) const
    {
        return index.bucketOf(key);
    }

  private:
    // Item metadata block (64B-aligned):
    // [key:8][slab:8][prev:8][next:8][hits:8]
    static constexpr Addr offKey = 0;
    static constexpr Addr offSlab = 8;
    static constexpr Addr offPrev = 16;
    static constexpr Addr offNext = 24;
    static constexpr Addr offHits = 32;
    static constexpr std::size_t metaBytes = 64;

    /** Unlink + reinsert at the LRU head, bump the hit counter. */
    void touch(runtime::Transaction &tx, Addr meta);
    void pushFront(runtime::Transaction &tx, Addr meta);
    void unlink(runtime::Transaction &tx, Addr meta);

    runtime::PersistentMemory &pm;
    KvConfig cfg;
    PmHashmap index; ///< key -> item metadata address
    Addr lruHeadSlot;
    Addr lruTailSlot;
};

} // namespace pmemspec::pmds

#endif // PMEMSPEC_PMDS_KV_STORE_HH
