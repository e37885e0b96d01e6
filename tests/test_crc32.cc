/**
 * @file
 * Tests for CRC-32C: known answers, seed chaining, and agreement of
 * the table and SSE4.2 paths with a bitwise reference.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/crc32.hh"

using namespace pmemspec;

namespace
{

/** Bit-at-a-time CRC-32C, straight from the reflected polynomial. */
std::uint32_t
bitwiseCrc(const std::uint8_t *p, std::size_t n, std::uint32_t seed)
{
    std::uint32_t c = ~seed;
    for (std::size_t i = 0; i < n; ++i) {
        c ^= p[i];
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0x82F63B78u ^ (c >> 1) : c >> 1;
    }
    return ~c;
}

} // namespace

TEST(Crc32c, KnownAnswers)
{
    EXPECT_EQ(crc32c("123456789", 9), 0xE3069283u);
    EXPECT_EQ(crc32c("", 0), 0u);
    const std::vector<std::uint8_t> zeros(32, 0);
    EXPECT_EQ(crc32c(zeros.data(), zeros.size()), 0x8A9136AAu);
}

TEST(Crc32c, SeedChainsPieces)
{
    const char text[] = "persistent memory speculation";
    const std::size_t n = sizeof(text) - 1;
    for (std::size_t cut = 0; cut <= n; ++cut) {
        const std::uint32_t a = crc32c(text, cut);
        EXPECT_EQ(crc32c(text + cut, n - cut, a), crc32c(text, n))
            << "cut " << cut;
    }
}

TEST(Crc32c, BothPathsMatchBitwiseReference)
{
    std::vector<std::uint8_t> buf(300 + 8);
    for (std::size_t i = 0; i < buf.size(); ++i)
        buf[i] = static_cast<std::uint8_t>(i * 131 + 17);
    const bool hw = crc32c_impl::hardwareAvailable();
    for (std::size_t off = 0; off < 8; ++off) {
        for (std::size_t len = 0; len <= 300; ++len) {
            const std::uint8_t *p = buf.data() + off;
            const std::uint32_t seed = static_cast<std::uint32_t>(len);
            const std::uint32_t want = bitwiseCrc(p, len, seed);
            ASSERT_EQ(crc32c_impl::table(p, len, seed), want)
                << "table, offset " << off << " length " << len;
            if (hw) {
                ASSERT_EQ(crc32c_impl::hardware(p, len, seed), want)
                    << "sse4.2, offset " << off << " length " << len;
            }
            ASSERT_EQ(crc32c(p, len, seed), want);
        }
    }
}
