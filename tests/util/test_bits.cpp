#include "util/bits.hpp"

#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "util/hash.hpp"
#include "util/prefix_sum.hpp"

namespace katric {
namespace {

TEST(Bits, CeilLog2) {
    EXPECT_EQ(ceil_log2(0), 0u);
    EXPECT_EQ(ceil_log2(1), 0u);
    EXPECT_EQ(ceil_log2(2), 1u);
    EXPECT_EQ(ceil_log2(3), 2u);
    EXPECT_EQ(ceil_log2(4), 2u);
    EXPECT_EQ(ceil_log2(5), 3u);
    EXPECT_EQ(ceil_log2(1024), 10u);
    EXPECT_EQ(ceil_log2(1025), 11u);
}

TEST(Bits, FloorLog2) {
    EXPECT_EQ(floor_log2(1), 0u);
    EXPECT_EQ(floor_log2(2), 1u);
    EXPECT_EQ(floor_log2(3), 1u);
    EXPECT_EQ(floor_log2(4), 2u);
    EXPECT_EQ(floor_log2(1023), 9u);
}

TEST(Bits, PowerOfTwoChecks) {
    EXPECT_TRUE(is_power_of_two(1));
    EXPECT_TRUE(is_power_of_two(2));
    EXPECT_TRUE(is_power_of_two(1ULL << 40));
    EXPECT_FALSE(is_power_of_two(0));
    EXPECT_FALSE(is_power_of_two(3));
    EXPECT_EQ(next_power_of_two(5), 8u);
    EXPECT_EQ(next_power_of_two(8), 8u);
    EXPECT_EQ(next_power_of_two(1), 1u);
}

TEST(Bits, DivCeil) {
    EXPECT_EQ(div_ceil(10, 3), 4u);
    EXPECT_EQ(div_ceil(9, 3), 3u);
    EXPECT_EQ(div_ceil(1, 64), 1u);
    EXPECT_EQ(div_ceil(0, 64), 0u);
    // Near 2^64, a + b − 1 would wrap to a small number.
    constexpr std::uint64_t kMax = ~std::uint64_t{0};
    EXPECT_EQ(div_ceil(kMax, 64), std::uint64_t{1} << 58);
    EXPECT_EQ(div_ceil(kMax - 63, 64), (std::uint64_t{1} << 58) - 1);
    EXPECT_EQ(div_ceil(kMax, kMax), 1u);
    EXPECT_EQ(div_ceil(kMax, 2), std::uint64_t{1} << 63);
}

TEST(Bits, IsqrtExhaustiveSmallAndSpot) {
    for (std::uint64_t x = 0; x < 10000; ++x) {
        const auto r = isqrt(x);
        EXPECT_LE(r * r, x);
        EXPECT_GT((r + 1) * (r + 1), x);
    }
    EXPECT_EQ(isqrt(1ULL << 62), 1ULL << 31);
}

TEST(PrefixSum, ExclusiveShape) {
    const std::vector<std::uint64_t> degrees{3, 0, 2, 5};
    const auto offsets = exclusive_prefix_sum(std::span<const std::uint64_t>(degrees));
    EXPECT_EQ(offsets, (std::vector<std::uint64_t>{0, 3, 3, 5, 10}));
}

TEST(PrefixSum, InclusiveInPlace) {
    std::vector<std::uint64_t> v{1, 2, 3, 4};
    inclusive_prefix_sum_inplace(std::span<std::uint64_t>(v));
    EXPECT_EQ(v, (std::vector<std::uint64_t>{1, 3, 6, 10}));
}

TEST(Hash, Hash64IsStableAndMixing) {
    EXPECT_EQ(hash64(42), hash64(42));
    EXPECT_NE(hash64(42), hash64(43));
    EXPECT_NE(hash64_seeded(42, 1), hash64_seeded(42, 2));
    // Low bits of consecutive keys should not correlate.
    int same_low_bit = 0;
    for (std::uint64_t i = 0; i < 1000; ++i) {
        if ((hash64(i) & 1) == (hash64(i + 1) & 1)) { ++same_low_bit; }
    }
    EXPECT_GT(same_low_bit, 350);
    EXPECT_LT(same_low_bit, 650);
}

}  // namespace
}  // namespace katric
