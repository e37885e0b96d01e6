#include "crc32.hh"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace pmemspec
{

namespace
{

/** Build the byte-at-a-time lookup table for the reflected
 *  Castagnoli polynomial 0x1EDC6F41 (reflected: 0x82F63B78). */
constexpr std::array<std::uint32_t, 256>
makeTable()
{
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0x82F63B78u ^ (c >> 1) : c >> 1;
        t[i] = c;
    }
    return t;
}

constexpr std::array<std::uint32_t, 256> crcTable = makeTable();

} // namespace

namespace crc32c_impl
{

std::uint32_t
table(const void *data, std::size_t n, std::uint32_t seed)
{
    const auto *p = static_cast<const std::uint8_t *>(data);
    std::uint32_t c = ~seed;
    for (std::size_t i = 0; i < n; ++i)
        c = crcTable[(c ^ p[i]) & 0xFF] ^ (c >> 8);
    return ~c;
}

#if defined(__x86_64__)

__attribute__((target("sse4.2"))) std::uint32_t
hardware(const void *data, std::size_t n, std::uint32_t seed)
{
    const auto *p = static_cast<const std::uint8_t *>(data);
    std::uint32_t c = ~seed;
    // Bytes up to the first 8-byte boundary, then whole words.
    for (; n != 0 && (reinterpret_cast<std::uintptr_t>(p) & 7); --n)
        c = _mm_crc32_u8(c, *p++);
    std::uint64_t c64 = c;
    for (; n >= 8; n -= 8, p += 8) {
        std::uint64_t w;
        std::memcpy(&w, p, 8);
        c64 = _mm_crc32_u64(c64, w);
    }
    c = static_cast<std::uint32_t>(c64);
    for (; n != 0; --n)
        c = _mm_crc32_u8(c, *p++);
    return ~c;
}

bool
hardwareAvailable()
{
    // May run during static initialization, before libgcc's own
    // CPU-model constructor is guaranteed to have run.
    __builtin_cpu_init();
    return __builtin_cpu_supports("sse4.2");
}

#else

std::uint32_t
hardware(const void *data, std::size_t n, std::uint32_t seed)
{
    return table(data, n, seed);
}

bool
hardwareAvailable()
{
    return false;
}

#endif

} // namespace crc32c_impl

std::uint32_t
crc32c(const void *data, std::size_t n, std::uint32_t seed)
{
    using Impl = std::uint32_t (*)(const void *, std::size_t,
                                   std::uint32_t);
    static const Impl impl = crc32c_impl::hardwareAvailable()
                                 ? &crc32c_impl::hardware
                                 : &crc32c_impl::table;
    return impl(data, n, seed);
}

} // namespace pmemspec
