/**
 * @file
 * Struct-of-arrays per-block state table for the PM controller.
 *
 * The PMC tracks several small automata per cache block: write-queue
 * coalescability, the HOPS pending-persist count, and the Section
 * 5.2.2 speculation-ID order check. These used to live in separate
 * std::map<Addr, ...> instances -- red-black trees allocating a node
 * per block and chasing pointers on every persist.
 *
 * BlockTable replaces all of them with one open-addressing hash table
 * (linear probing, power-of-two capacity) whose per-block fields are
 * stored as parallel arrays: a probe touches only the key/flag lanes,
 * and each automaton's step is one method that probes once and
 * resolves the transition in place. Entries are never tombstoned --
 * clearing an automaton just drops its flag bit, and fully-dead
 * entries are compacted away at the next rehash -- so probe chains
 * stay intact without deletion bookkeeping.
 */

#ifndef PMEMSPEC_MEM_BLOCK_TABLE_HH
#define PMEMSPEC_MEM_BLOCK_TABLE_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"

namespace pmemspec::mem
{

/** See the file comment. */
class BlockTable
{
  public:
    explicit BlockTable(std::size_t capacity_hint = 256)
    {
        std::size_t cap = 16;
        while (cap < capacity_hint)
            cap <<= 1;
        rebuild(cap);
    }

    // ---- write-queue coalescing automaton --------------------------

    /** Is the block sitting in the write queue, still mergeable? */
    bool
    coalescable(Addr a) const
    {
        const std::uint32_t i = find(a);
        return i != kNil && (flags_[i] & kCoalescable);
    }

    /**
     * Mark the block coalescable.
     * @return false when it already was (the caller's store merges).
     */
    bool
    markCoalescable(Addr a)
    {
        const std::uint32_t i = findOrInsert(a);
        if (flags_[i] & kCoalescable)
            return false;
        flags_[i] |= kCoalescable;
        return true;
    }

    /** The device write started; the block stops being mergeable. */
    void
    clearCoalescable(Addr a)
    {
        const std::uint32_t i = find(a);
        if (i != kNil)
            flags_[i] &= static_cast<std::uint8_t>(~kCoalescable);
    }

    // ---- HOPS pending-persist counter ------------------------------

    unsigned
    pendingPersists(Addr a) const
    {
        const std::uint32_t i = find(a);
        return i == kNil ? 0 : persistCnt_[i];
    }

    /** A persist to the block entered a persist buffer. */
    void
    persistBuffered(Addr a)
    {
        ++persistCnt_[findOrInsert(a)];
    }

    /**
     * A persist to the block drained from its buffer.
     * @return true when the block's count hit zero (held reads may
     *         proceed).
     */
    bool
    persistDrained(Addr a)
    {
        const std::uint32_t i = find(a);
        panic_if(i == kNil || persistCnt_[i] == 0,
                 "persist drained without matching buffered persist");
        return --persistCnt_[i] == 0;
    }

    // ---- speculation-ID order automaton (Section 5.2.2) ------------

    enum class SpecStep
    {
        Inserted,  ///< first persist in a window: start tracking
        Refreshed, ///< in-order persist: max-merged, window refreshed
        Violation, ///< lower ID inside the window: WAW inversion
    };

    struct SpecResult
    {
        SpecStep step;
        SpecId prev; ///< ID recorded before this step (trace payload)
    };

    /**
     * Step the order automaton for a tagged persist: a violation
     * (storeOrderViolated against the ID recorded within `window`)
     * clears the entry; otherwise the recorded ID max-merges and the
     * window restarts. One probe resolves the whole transition.
     */
    SpecResult
    specPersist(Addr a, SpecId id, Tick now, Tick window)
    {
        const std::uint32_t i = findOrInsert(a);
        if (flags_[i] & kSpecTracked) {
            const SpecId prev = specId_[i];
            if (now - specAt_[i] <= window && id < prev) {
                flags_[i] &= static_cast<std::uint8_t>(~kSpecTracked);
                return {SpecStep::Violation, prev};
            }
            specId_[i] = prev > id ? prev : id;
            specAt_[i] = now;
            return {SpecStep::Refreshed, prev};
        }
        flags_[i] |= kSpecTracked;
        specId_[i] = id;
        specAt_[i] = now;
        return {SpecStep::Inserted, id};
    }

    /**
     * Lazy expiry sweep for one block: drops the entry if its window
     * elapsed without a refresh. @return the expired ID, or kNil32
     * sentinel via `expired=false` -- i.e. true + ID when expired.
     */
    bool
    specExpire(Addr a, Tick now, Tick window, SpecId *expired_id)
    {
        const std::uint32_t i = find(a);
        if (i == kNil || !(flags_[i] & kSpecTracked) ||
            now - specAt_[i] <= window)
            return false;
        if (expired_id)
            *expired_id = specId_[i];
        flags_[i] &= static_cast<std::uint8_t>(~kSpecTracked);
        return true;
    }

    bool
    specTracked(Addr a) const
    {
        const std::uint32_t i = find(a);
        return i != kNil && (flags_[i] & kSpecTracked);
    }

    /** Live (non-dead) entries; dead ones compact away on rehash. */
    std::size_t
    blocksTracked() const
    {
        std::size_t n = 0;
        for (std::uint32_t i = 0; i < cap_; ++i)
            if ((flags_[i] & kOccupied) && !dead(i))
                ++n;
        return n;
    }

  private:
    static constexpr std::uint32_t kNil = 0xffffffffu;

    enum : std::uint8_t
    {
        kOccupied = 1,
        kCoalescable = 2,
        kSpecTracked = 4,
    };

    /** An entry whose automata are all idle; rehash reclaims it. */
    bool
    dead(std::uint32_t i) const
    {
        return flags_[i] == kOccupied && persistCnt_[i] == 0;
    }

    static std::uint64_t
    hashBlock(Addr a)
    {
        return blockNumber(a) * 0x9E3779B97F4A7C15ull;
    }

    std::uint32_t
    find(Addr a) const
    {
        const Addr k = blockAlign(a);
        std::uint32_t i =
            static_cast<std::uint32_t>(hashBlock(k) >> shift_);
        while (flags_[i] & kOccupied) {
            if (key_[i] == k)
                return i;
            i = (i + 1) & (cap_ - 1);
        }
        return kNil;
    }

    std::uint32_t
    findOrInsert(Addr a)
    {
        const Addr k = blockAlign(a);
        std::uint32_t i =
            static_cast<std::uint32_t>(hashBlock(k) >> shift_);
        while (flags_[i] & kOccupied) {
            if (key_[i] == k)
                return i;
            i = (i + 1) & (cap_ - 1);
        }
        if ((occupied_ + 1) * 10 > cap_ * 7) {
            grow();
            return findOrInsert(k);
        }
        ++occupied_;
        key_[i] = k;
        flags_[i] = kOccupied;
        persistCnt_[i] = 0;
        specId_[i] = 0;
        specAt_[i] = 0;
        return i;
    }

    void
    rebuild(std::size_t cap)
    {
        cap_ = static_cast<std::uint32_t>(cap);
        shift_ = 64;
        while ((std::size_t{1} << (64 - shift_)) < cap)
            --shift_;
        occupied_ = 0;
        key_.assign(cap, 0);
        flags_.assign(cap, 0);
        persistCnt_.assign(cap, 0);
        specId_.assign(cap, 0);
        specAt_.assign(cap, 0);
    }

    void
    grow()
    {
        // Re-file live entries into a larger table; dead entries (all
        // automata idle) are dropped here, which is what bounds the
        // footprint of long service runs.
        BlockTable bigger(cap_ * 2);
        for (std::uint32_t i = 0; i < cap_; ++i) {
            if (!(flags_[i] & kOccupied) || dead(i))
                continue;
            const std::uint32_t j = bigger.findOrInsert(key_[i]);
            bigger.flags_[j] = flags_[i];
            bigger.persistCnt_[j] = persistCnt_[i];
            bigger.specId_[j] = specId_[i];
            bigger.specAt_[j] = specAt_[i];
        }
        cap_ = bigger.cap_;
        shift_ = bigger.shift_;
        occupied_ = bigger.occupied_;
        key_ = std::move(bigger.key_);
        flags_ = std::move(bigger.flags_);
        persistCnt_ = std::move(bigger.persistCnt_);
        specId_ = std::move(bigger.specId_);
        specAt_ = std::move(bigger.specAt_);
    }

    std::uint32_t cap_ = 0;
    unsigned shift_ = 64; ///< hash >> shift_ lands in [0, cap_)
    std::uint32_t occupied_ = 0;
    std::vector<Addr> key_;
    std::vector<std::uint8_t> flags_;
    std::vector<std::uint32_t> persistCnt_;
    std::vector<SpecId> specId_;
    std::vector<Tick> specAt_;
};

} // namespace pmemspec::mem

#endif // PMEMSPEC_MEM_BLOCK_TABLE_HH
