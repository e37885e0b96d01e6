/**
 * @file
 * Set-associative write-back cache tag array.
 *
 * Only tags and per-line metadata are modelled; the simulated data
 * values live in the functional runtime layer. The timing layer needs
 * hits, misses, evictions and dirty state, which this class provides.
 */

#ifndef PMEMSPEC_MEM_CACHE_HH
#define PMEMSPEC_MEM_CACHE_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"

namespace pmemspec::mem
{

/** Result of inserting a block: the victim, if a dirty one was evicted. */
struct Eviction
{
    Addr blockAddr;
    bool dirty;
};

/**
 * An LRU set-associative cache of 64-byte blocks.
 *
 * All addresses passed in must already be block-aligned.
 */
class SetAssocCache
{
  public:
    /**
     * @param size_bytes Total capacity in bytes.
     * @param ways       Associativity.
     */
    SetAssocCache(std::string name, std::size_t size_bytes,
                  unsigned ways);

    /**
     * Look a block up and update LRU state on a hit.
     * @return true on hit.
     */
    bool access(Addr block_addr);

    /** Look up without disturbing replacement state. */
    bool contains(Addr block_addr) const;

    /** @return the dirty bit; block must be present. */
    bool isDirty(Addr block_addr) const;

    /** Mark a present block dirty and update LRU state. */
    void markDirty(Addr block_addr);

    /**
     * A store: access() and, on a hit, markDirty() in one tag probe.
     * @return true on hit.
     */
    bool write(Addr block_addr);

    /**
     * Insert a block, evicting the LRU way if the set is full.
     * @return the eviction, if a valid block was displaced.
     */
    std::optional<Eviction> insert(Addr block_addr, bool dirty);

    /**
     * Remove a block if present (invalidation or explicit flush).
     * @return the dirty bit of the removed block, or nullopt if absent.
     */
    std::optional<bool> invalidate(Addr block_addr);

    /** Clear the dirty bit of a present block (clean writeback). */
    void markClean(Addr block_addr);

    std::size_t numSets() const { return sets; }
    unsigned numWays() const { return waysPerSet; }
    const std::string &name() const { return cacheName; }

    /** Number of valid blocks currently cached. */
    std::size_t population() const { return validCount; }

    Counter hits;
    Counter misses;
    Counter evictions;
    Counter dirtyEvictions;

  private:
    /**
     * One tag-array entry, packed to 16 bytes so a 4-way set probes a
     * single host cache line. The block tag is 64-byte aligned, so
     * its low bits carry the valid/dirty flags.
     */
    struct Line
    {
        static constexpr std::uint64_t kValid = 1;
        static constexpr std::uint64_t kDirty = 2;
        static constexpr std::uint64_t kTagMask =
            ~std::uint64_t{blockBytes - 1};

        std::uint64_t meta = 0; ///< tag | flags
        std::uint64_t lastUse = 0;

        bool valid() const { return meta & kValid; }
        bool dirty() const { return meta & kDirty; }
        Addr tag() const { return meta & kTagMask; }
        bool
        matches(Addr block_addr) const
        {
            return (meta & (kTagMask | kValid)) ==
                   (block_addr | kValid);
        }
    };

    std::size_t setIndex(Addr block_addr) const;
    Line *find(Addr block_addr);
    const Line *find(Addr block_addr) const;

    std::string cacheName;
    std::size_t sets;
    unsigned waysPerSet;
    std::vector<Line> lines;
    std::uint64_t useClock = 0;
    std::size_t validCount = 0;
};

} // namespace pmemspec::mem

#endif // PMEMSPEC_MEM_CACHE_HH
