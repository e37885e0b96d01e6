#include "kv_store.hh"

#include <cstring>

#include "common/logging.hh"
#include "runtime/scratch_bytes.hh"

namespace pmemspec::pmds
{

KvStore::KvStore(runtime::PersistentMemory &pm_, const KvConfig &cfg_)
    : pm(pm_), cfg(cfg_), index(pm_, cfg_.buckets),
      lruHeadSlot(pm_.alloc(8, 64)),
      lruTailSlot(pm_.alloc(8, 8))
{
    fatal_if(cfg.valueBytes == 0, "zero-sized KV values");
    pm.writeU64(lruHeadSlot, 0);
    pm.writeU64(lruTailSlot, 0);
    pm.persistAll();
}

std::size_t
KvStore::footprint(const KvConfig &cfg, std::size_t keys)
{
    using runtime::PersistentMemory;
    return PmHashmap::footprint(cfg.buckets, keys) +
           2 * PersistentMemory::allocBound(8) +
           keys * (PersistentMemory::allocBound(cfg.valueBytes) +
                   PersistentMemory::allocBound(metaBytes));
}

void
KvStore::unlink(runtime::Transaction &tx, Addr meta)
{
    const Addr prev = tx.readU64Dep(meta + offPrev);
    const Addr next = tx.readU64Dep(meta + offNext);
    if (prev)
        tx.writeU64(prev + offNext, next);
    else
        tx.writeU64(lruHeadSlot, next);
    if (next)
        tx.writeU64(next + offPrev, prev);
    else
        tx.writeU64(lruTailSlot, prev);
}

void
KvStore::pushFront(runtime::Transaction &tx, Addr meta)
{
    const Addr head = tx.readU64Dep(lruHeadSlot);
    tx.writeU64(meta + offPrev, 0);
    tx.writeU64(meta + offNext, head);
    if (head)
        tx.writeU64(head + offPrev, meta);
    else
        tx.writeU64(lruTailSlot, meta);
    tx.writeU64(lruHeadSlot, meta);
}

void
KvStore::touch(runtime::Transaction &tx, Addr meta)
{
    if (!cfg.lruTracking)
        return;
    tx.writeU64(meta + offHits, tx.readU64(meta + offHits) + 1);
    if (tx.readU64Dep(lruHeadSlot) == meta)
        return; // already at the front
    unlink(tx, meta);
    pushFront(tx, meta);
}

void
KvStore::set(runtime::Transaction &tx, std::uint64_t key,
             std::uint8_t fill_byte)
{
    runtime::ScratchBytes value(cfg.valueBytes);
    std::memset(value.data(), fill_byte, value.size());
    auto meta = index.get(tx, key);
    if (meta) {
        // Overwrite in place, undo-logged, and bump the LRU.
        const Addr slab = tx.readU64Dep(*meta + offSlab);
        tx.write(slab, value.data(), value.size());
        touch(tx, *meta);
        return;
    }
    // Fresh item: slab and metadata are unreachable until the index
    // points at them, so their payload needs no undo entry.
    const Addr slab = pm.alloc(cfg.valueBytes, 64);
    pm.write(slab, value.data(), value.size());
    const Addr fresh = pm.alloc(metaBytes, 64);
    pm.writeU64(fresh + offKey, key);
    pm.writeU64(fresh + offSlab, slab);
    pm.writeU64(fresh + offPrev, 0);
    pm.writeU64(fresh + offNext, 0);
    pm.writeU64(fresh + offHits, 0);
    index.put(tx, key, fresh);
    if (cfg.lruTracking)
        pushFront(tx, fresh);
}

std::optional<std::uint8_t>
KvStore::get(runtime::Transaction &tx, std::uint64_t key)
{
    auto meta = index.get(tx, key);
    if (!meta)
        return std::nullopt;
    const Addr slab = tx.readU64Dep(*meta + offSlab);
    runtime::ScratchBytes buf(cfg.valueBytes);
    std::uint8_t *value = buf.data();
    tx.read(slab, value, buf.size());
    // Every byte equals the first iff each equals its successor.
    panic_if(std::memcmp(value, value + 1, buf.size() - 1) != 0,
             "torn KV value observed for key %llu",
             static_cast<unsigned long long>(key));
    // memcached updates the item's LRU position on every hit.
    touch(tx, *meta);
    return value[0];
}

bool
KvStore::erase(runtime::Transaction &tx, std::uint64_t key)
{
    auto meta = index.get(tx, key);
    if (!meta)
        return false;
    if (cfg.lruTracking)
        unlink(tx, *meta);
    return index.erase(tx, key);
}

std::optional<std::uint8_t>
KvStore::lookup(std::uint64_t key) const
{
    auto meta = index.lookup(key);
    if (!meta)
        return std::nullopt;
    const Addr slab = pm.readU64(*meta + offSlab);
    std::uint8_t b;
    pm.read(slab, &b, 1);
    return b;
}

std::optional<std::pair<Addr, std::size_t>>
KvStore::slabRegion(std::uint64_t key) const
{
    auto meta = index.lookup(key);
    if (!meta)
        return std::nullopt;
    const Addr slab = pm.readU64(*meta + offSlab);
    return std::pair<Addr, std::size_t>{slab, cfg.valueBytes};
}

std::optional<std::uint64_t>
KvStore::hitCount(std::uint64_t key) const
{
    auto meta = index.lookup(key);
    if (!meta)
        return std::nullopt;
    return pm.readU64(*meta + offHits);
}

std::uint64_t
KvStore::lruFrontKey() const
{
    const Addr head = pm.readU64(lruHeadSlot);
    return head ? pm.readU64(head + offKey) : 0;
}

bool
KvStore::checkInvariants() const
{
    if (!index.checkInvariants())
        return false;
    if (!cfg.lruTracking)
        return true;
    // Forward walk matches the index size; back-links are coherent.
    // The size is a full chain walk: take it once, not per node.
    const std::size_t items = index.size();
    std::size_t n = 0;
    Addr prev = 0;
    for (Addr m = pm.readU64(lruHeadSlot); m != 0;
         m = pm.readU64(m + offNext)) {
        if (pm.readU64(m + offPrev) != prev)
            return false;
        // Every listed item must be index-reachable under its key.
        auto found = index.lookup(pm.readU64(m + offKey));
        if (!found || *found != m)
            return false;
        prev = m;
        if (++n > items)
            return false; // cycle
    }
    if (pm.readU64(lruTailSlot) != prev)
        return false;
    return n == items;
}

} // namespace pmemspec::pmds
