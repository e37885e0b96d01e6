/**
 * @file
 * CRC-32C (Castagnoli) checksums for persistent-log integrity.
 *
 * The undo log stores a per-entry checksum so recovery can *verify*
 * entries instead of trusting the persist order alone: a torn or
 * bit-flipped entry fails its CRC and is reported, never replayed.
 * CRC-32C is the polynomial real storage stacks use (iSCSI, ext4,
 * btrfs). Integrity checking here is correctness machinery, not a
 * modelled latency, but it runs on every logged store, so crc32c()
 * uses the SSE4.2 `crc32` instruction when the CPU has it (chosen
 * once at start-up) and a byte-at-a-time table otherwise. Both paths
 * compute the same function bit for bit.
 */

#ifndef PMEMSPEC_COMMON_CRC32_HH
#define PMEMSPEC_COMMON_CRC32_HH

#include <cstddef>
#include <cstdint>

namespace pmemspec
{

/**
 * CRC-32C over a byte range.
 * @param seed Chain value from a previous call (0 to start); pass the
 *        previous return value to checksum discontiguous pieces as
 *        one logical record.
 */
std::uint32_t crc32c(const void *data, std::size_t n,
                     std::uint32_t seed = 0);

/** The two implementations crc32c() dispatches between, exposed so
 *  tests can check each against a reference on any host. */
namespace crc32c_impl
{

/** Portable table-driven path. */
std::uint32_t table(const void *data, std::size_t n, std::uint32_t seed);

/** SSE4.2 path; call only when hardwareAvailable(). */
std::uint32_t hardware(const void *data, std::size_t n,
                       std::uint32_t seed);

/** The CPU supports the SSE4.2 `crc32` instruction. */
bool hardwareAvailable();

} // namespace crc32c_impl

} // namespace pmemspec

#endif // PMEMSPEC_COMMON_CRC32_HH
