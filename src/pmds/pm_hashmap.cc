#include "pm_hashmap.hh"

#include "common/logging.hh"

namespace pmemspec::pmds
{

PmHashmap::PmHashmap(runtime::PersistentMemory &pm_,
                     std::size_t num_buckets)
    : pm(pm_),
      table(pm_.alloc(num_buckets * 8, 64)),
      numBuckets(num_buckets)
{
    fatal_if(num_buckets == 0, "hashmap needs at least one bucket");
    for (std::size_t b = 0; b < numBuckets; ++b)
        pm.writeU64(table + b * 8, 0);
    pm.persistAll();
}

std::size_t
PmHashmap::footprint(std::size_t num_buckets, std::size_t keys)
{
    using runtime::PersistentMemory;
    return PersistentMemory::allocBound(num_buckets * 8) +
           keys * PersistentMemory::allocBound(nodeBytes);
}

std::size_t
PmHashmap::bucketIndex(std::uint64_t key) const
{
    std::uint64_t h = key * 0x9e3779b97f4a7c15ULL;
    h ^= h >> 32;
    return static_cast<std::size_t>(h % numBuckets);
}

Addr
PmHashmap::bucketAddr(std::size_t b) const
{
    return table + b * 8;
}

void
PmHashmap::put(runtime::Transaction &tx, std::uint64_t key,
               std::uint64_t value)
{
    const Addr bucket = bucketAddr(bucketIndex(key));
    // Chase the chain looking for the key.
    for (Addr p = tx.readU64Dep(bucket); p != 0;
         p = tx.readU64Dep(p + 16)) {
        if (tx.readU64(p) == key) {
            tx.writeU64(p + 8, value);
            return;
        }
    }
    // Not found: link a fresh node at the head. The node itself is
    // unreachable until the bucket pointer flips, so only the bucket
    // pointer needs the undo log.
    const Addr node = pm.alloc(nodeBytes, 64);
    pm.writeU64(node, key);
    pm.writeU64(node + 8, value);
    pm.writeU64(node + 16, pm.readU64(bucket));
    tx.writeU64(bucket, node);
}

std::optional<std::uint64_t>
PmHashmap::get(runtime::Transaction &tx, std::uint64_t key)
{
    const Addr bucket = bucketAddr(bucketIndex(key));
    for (Addr p = tx.readU64Dep(bucket); p != 0;
         p = tx.readU64Dep(p + 16)) {
        if (tx.readU64(p) == key)
            return tx.readU64(p + 8);
    }
    return std::nullopt;
}

bool
PmHashmap::erase(runtime::Transaction &tx, std::uint64_t key)
{
    const Addr bucket = bucketAddr(bucketIndex(key));
    Addr prev_link = bucket;
    for (Addr p = tx.readU64Dep(bucket); p != 0;
         p = tx.readU64Dep(p + 16)) {
        if (tx.readU64(p) == key) {
            tx.writeU64(prev_link, tx.readU64(p + 16));
            return true;
        }
        prev_link = p + 16;
    }
    return false;
}

std::optional<std::uint64_t>
PmHashmap::lookup(std::uint64_t key) const
{
    const Addr bucket = bucketAddr(bucketIndex(key));
    for (Addr p = pm.readU64(bucket); p != 0; p = pm.readU64(p + 16)) {
        if (pm.readU64(p) == key)
            return pm.readU64(p + 8);
    }
    return std::nullopt;
}

std::size_t
PmHashmap::size() const
{
    std::size_t n = 0;
    for (std::size_t b = 0; b < numBuckets; ++b) {
        for (Addr p = pm.readU64(bucketAddr(b)); p != 0;
             p = pm.readU64(p + 16))
            ++n;
    }
    return n;
}

bool
PmHashmap::checkInvariants() const
{
    for (std::size_t b = 0; b < numBuckets; ++b) {
        std::size_t hops = 0;
        for (Addr p = pm.readU64(bucketAddr(b)); p != 0;
             p = pm.readU64(p + 16)) {
            if (bucketIndex(pm.readU64(p)) != b)
                return false;
            if (++hops > 10'000'000)
                return false; // cycle
        }
    }
    return true;
}

} // namespace pmemspec::pmds
