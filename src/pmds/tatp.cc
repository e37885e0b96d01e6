#include "tatp.hh"

#include "common/logging.hh"

namespace pmemspec::pmds
{

std::size_t
TatpDb::footprint(std::size_t num_subscribers)
{
    using runtime::PersistentMemory;
    return PersistentMemory::allocBound(num_subscribers * rowBytes) +
           PmHashmap::footprint(num_subscribers, num_subscribers) +
           PersistentMemory::allocBound(setupLogBytes);
}

TatpDb::TatpDb(runtime::PersistentMemory &pm_,
               std::size_t num_subscribers)
    : pm(pm_),
      rows(pm_.alloc(num_subscribers * rowBytes, 64)),
      count(num_subscribers),
      index(pm_, num_subscribers) // ~1 entry per bucket
{
    fatal_if(num_subscribers == 0, "TATP needs subscribers");
    // Populate (setup phase, outside FASEs). sub_nbr is a simple
    // reversible permutation of s_id, as in the TATP spec's
    // leading-zero-padded numbering.
    runtime::VirtualOs os;
    runtime::FaseRuntime setup(pm, os, 1,
                               runtime::RecoveryPolicy::Lazy,
                               setupLogBytes);
    for (std::uint64_t s = 0; s < count; ++s) {
        const std::uint64_t sub_nbr = s * 2654435761ULL % (1ULL << 40);
        const Addr r = rowAddr(s);
        pm.writeU64(r + offSId, s);
        pm.writeU64(r + offSubNbr, sub_nbr);
        pm.writeU64(r + offVlrLocation, 0);
        setup.runFase(0, [&](runtime::Transaction &tx) {
            index.put(tx, sub_nbr, s);
        });
    }
    pm.persistAll();
}

Addr
TatpDb::rowAddr(std::uint64_t s_id) const
{
    panic_if(s_id >= count, "bad subscriber id");
    return rows + s_id * rowBytes;
}

bool
TatpDb::updateLocation(runtime::Transaction &tx, std::uint64_t sub_nbr,
                       std::uint32_t new_location)
{
    // Index probe: SELECT s_id FROM subscriber WHERE sub_nbr = ?
    auto s_id = index.get(tx, sub_nbr);
    if (!s_id)
        return false;
    const Addr r = rowAddr(*s_id);
    // Sanity read of the row (the real transaction reads the row
    // before updating), then UPDATE ... SET vlr_location = ?.
    const std::uint64_t stored = tx.readU64(r + offSId);
    panic_if(stored != *s_id, "TATP row/id mismatch");
    tx.writeU64(r + offVlrLocation, new_location);
    return true;
}

std::uint32_t
TatpDb::location(std::uint64_t s_id) const
{
    return static_cast<std::uint32_t>(
        pm.readU64(rowAddr(s_id) + offVlrLocation));
}

bool
TatpDb::checkInvariants() const
{
    for (std::uint64_t s = 0; s < count; ++s) {
        if (pm.readU64(rowAddr(s) + offSId) != s)
            return false;
    }
    return true;
}

} // namespace pmemspec::pmds
