/**
 * @file
 * Unit tests for the minimal JSON writer: value types, escaping,
 * insertion order, deterministic number formatting; and a seeded
 * mutation fuzz of the parser over a committed bench envelope.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <limits>
#include <string>

#include "common/json.hh"
#include "common/rng.hh"

using namespace pmemspec;

TEST(Json, ScalarTypes)
{
    EXPECT_EQ(Json().dump(), "null");
    EXPECT_EQ(Json(true).dump(), "true");
    EXPECT_EQ(Json(false).dump(), "false");
    EXPECT_EQ(Json(42).dump(), "42");
    EXPECT_EQ(Json(std::uint64_t{18446744073709551615ULL}).dump(),
              "18446744073709551615");
    EXPECT_EQ(Json("hi").dump(), "\"hi\"");
}

TEST(Json, NumberFormattingIsShortestRoundTrip)
{
    EXPECT_EQ(Json(1.5).dump(), "1.5");
    EXPECT_EQ(Json(0.1).dump(), "0.1");
    EXPECT_EQ(Json(400.0).dump(), "400");
    // Inf/NaN have no JSON spelling; null stands in.
    EXPECT_EQ(Json(std::numeric_limits<double>::infinity()).dump(),
              "null");
    EXPECT_EQ(
        Json(std::numeric_limits<double>::quiet_NaN()).dump(),
        "null");
}

TEST(Json, StringEscaping)
{
    EXPECT_EQ(Json("a\"b").dump(), "\"a\\\"b\"");
    EXPECT_EQ(Json("back\\slash").dump(), "\"back\\\\slash\"");
    EXPECT_EQ(Json("line\nbreak\ttab").dump(),
              "\"line\\nbreak\\ttab\"");
    EXPECT_EQ(Json(std::string("ctl\x01")).dump(), "\"ctl\\u0001\"");
}

TEST(Json, ObjectPreservesInsertionOrderAndReplaces)
{
    Json obj = Json::object();
    obj.set("z", Json(1));
    obj.set("a", Json(2));
    obj.set("z", Json(3)); // replace keeps position
    EXPECT_EQ(obj.dump(), "{\"z\":3,\"a\":2}");
    ASSERT_NE(obj.find("a"), nullptr);
    EXPECT_DOUBLE_EQ(obj.find("a")->number(), 2);
    EXPECT_EQ(obj.find("missing"), nullptr);
    EXPECT_EQ(obj.size(), 2u);
}

TEST(Json, ArrayAndNesting)
{
    Json arr = Json::array();
    arr.push(Json(1));
    Json inner = Json::object();
    inner.set("k", Json("v"));
    arr.push(std::move(inner));
    EXPECT_EQ(arr.dump(), "[1,{\"k\":\"v\"}]");
    EXPECT_EQ(arr.size(), 2u);
    EXPECT_EQ(arr.at(1).find("k")->str(), "v");
}

TEST(Json, PrettyPrint)
{
    Json obj = Json::object();
    obj.set("a", Json(1));
    EXPECT_EQ(obj.dump(2), "{\n  \"a\": 1\n}");
    Json empty = Json::object();
    EXPECT_EQ(empty.dump(2), "{}");
}

/**
 * Seeded mutation fuzz of Json::parse over the committed
 * BENCH_modelcheck.json envelope: each round truncates it, flips bits
 * in it or overwrites bytes of it. A mutant the parser refuses must
 * come back Null with a non-empty error; one it accepts must
 * round-trip, parse(dump()) dumping the same bytes.
 */
TEST(JsonParseFuzz, EveryMutantIsRefusedOrRoundTrips)
{
    std::ifstream in(PMEMSPEC_SOURCE_DIR "/BENCH_modelcheck.json",
                     std::ios::binary);
    ASSERT_TRUE(in) << "BENCH_modelcheck.json not found";
    const std::string clean{std::istreambuf_iterator<char>(in), {}};
    std::string err;
    ASSERT_FALSE(Json::parse(clean, &err).isNull()) << err;

    constexpr std::uint64_t seed = 2026;
    constexpr std::size_t rounds = 300;
    Rng rng(seed);
    std::size_t truncated = 0, flipped = 0, overwritten = 0,
                refusals = 0, accepted = 0;
    for (std::size_t round = 0; round < rounds; ++round) {
        std::string bytes = clean;
        switch (rng.below(3)) {
        case 0:
            bytes.resize(rng.below(clean.size()));
            ++truncated;
            break;
        case 1:
            for (std::uint64_t i = 0, n = 1 + rng.below(4); i < n; ++i)
                bytes[rng.below(bytes.size())] ^=
                    static_cast<char>(1u << rng.below(8));
            ++flipped;
            break;
        default:
            for (std::uint64_t i = 0, n = 1 + rng.below(4); i < n; ++i)
                bytes[rng.below(bytes.size())] =
                    static_cast<char>(rng.below(256));
            ++overwritten;
            break;
        }
        err.clear();
        const Json doc = Json::parse(bytes, &err);
        if (!err.empty()) {
            ASSERT_TRUE(doc.isNull())
                << "round " << round << " (seed " << seed
                << "): refused with a value";
            ++refusals;
            continue;
        }
        const std::string dumped = doc.dump();
        std::string again;
        const Json back = Json::parse(dumped, &again);
        ASSERT_TRUE(again.empty())
            << "round " << round << " (seed " << seed
            << "): dump() of an accepted mutant does not parse: "
            << again;
        ASSERT_EQ(back.dump(), dumped) << "round " << round;
        ++accepted;
    }
    // Every mutation kind ran, and both outcomes occurred.
    EXPECT_GE(truncated, 1u);
    EXPECT_GE(flipped, 1u);
    EXPECT_GE(overwritten, 1u);
    EXPECT_GE(refusals, 1u);
    EXPECT_GE(accepted, 1u);
}
