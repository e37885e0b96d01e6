#include "pm_array.hh"

#include <cstring>
#include <vector>

#include "common/logging.hh"

namespace pmemspec::pmds
{

PmArray::PmArray(runtime::PersistentMemory &pm_, std::size_t n,
                 std::size_t elem_bytes)
    : pm(pm_),
      base(pm_.alloc(n * elem_bytes, 64)),
      expectedSumSlot(pm_.alloc(8, 8)),
      count(n),
      elemSize(elem_bytes)
{
    fatal_if(n == 0, "empty PmArray");
    fatal_if(elem_bytes < 8, "PmArray elements must hold a u64");
    pm.writeU64(expectedSumSlot, 0);
}

std::size_t
PmArray::footprint(std::size_t n, std::size_t elem_bytes)
{
    using runtime::PersistentMemory;
    return PersistentMemory::allocBound(n * elem_bytes) +
           PersistentMemory::allocBound(8);
}

Addr
PmArray::elemAddr(std::size_t i) const
{
    panic_if(i >= count, "PmArray index %zu out of %zu", i, count);
    return base + i * elemSize;
}

void
PmArray::init(std::size_t i, std::uint64_t v)
{
    // Maintain the expected-sum record: init overwrites the previous
    // (zero or earlier) value of the slot's checksum word.
    const std::uint64_t old = pm.readU64(elemAddr(i));
    pm.writeU64(elemAddr(i), v);
    pm.writeU64(expectedSumSlot,
                pm.readU64(expectedSumSlot) - old + v);
}

void
PmArray::swap(runtime::Transaction &tx, std::size_t i, std::size_t j)
{
    std::vector<std::uint8_t> a(elemSize);
    std::vector<std::uint8_t> b(elemSize);
    tx.read(elemAddr(i), a.data(), elemSize);
    tx.read(elemAddr(j), b.data(), elemSize);
    tx.write(elemAddr(i), b.data(), elemSize);
    tx.write(elemAddr(j), a.data(), elemSize);
}

std::uint64_t
PmArray::get(std::size_t i) const
{
    return pm.readU64(elemAddr(i));
}

std::uint64_t
PmArray::checksum() const
{
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < count; ++i)
        sum += get(i);
    return sum;
}

bool
PmArray::checkInvariants() const
{
    return checksum() == pm.readU64(expectedSumSlot);
}

std::uint64_t
PmArray::persistedChecksum() const
{
    std::uint64_t sum = 0;
    const std::uint8_t *img = pm.persistedImage();
    for (std::size_t i = 0; i < count; ++i) {
        std::uint64_t v;
        std::memcpy(&v, img + base + i * elemSize, 8);
        sum += v;
    }
    return sum;
}

} // namespace pmemspec::pmds
