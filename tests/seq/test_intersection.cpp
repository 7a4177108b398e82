#include "seq/intersection.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "seq/adaptive_intersect.hpp"
#include "util/random.hpp"

namespace katric::seq {
namespace {

using graph::VertexId;

std::vector<VertexId> sorted_sample(Xoshiro256& rng, std::size_t size,
                                    std::uint64_t universe) {
    std::set<VertexId> values;
    while (values.size() < size) { values.insert(rng.next_bounded(universe)); }
    return {values.begin(), values.end()};
}

std::uint64_t reference_count(const std::vector<VertexId>& a,
                              const std::vector<VertexId>& b) {
    std::vector<VertexId> out;
    std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                          std::back_inserter(out));
    return out.size();
}

TEST(Intersection, HandCases) {
    const std::vector<VertexId> a{1, 3, 5, 7};
    const std::vector<VertexId> b{3, 4, 5, 9};
    for (const auto kind : all_intersect_kinds()) {
        const AdaptiveIntersect isect(kind);
        EXPECT_EQ(isect.count(a, b).count, 2u);
        EXPECT_EQ(isect.count(b, a).count, 2u);
        EXPECT_EQ(isect.count(a, {}).count, 0u);
        EXPECT_EQ(isect.count({}, b).count, 0u);
        EXPECT_EQ(isect.count(a, a).count, 4u);
    }
}

class IntersectionRandomTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(IntersectionRandomTest, AllKernelsAgreeWithStl) {
    const auto [size_a, size_b] = GetParam();
    Xoshiro256 rng(size_a * 1000 + size_b);
    for (int trial = 0; trial < 20; ++trial) {
        const auto a = sorted_sample(rng, size_a, 4 * (size_a + size_b) + 8);
        const auto b = sorted_sample(rng, size_b, 4 * (size_a + size_b) + 8);
        const auto expected = reference_count(a, b);
        EXPECT_EQ(intersect_merge(a, b).count, expected);
        EXPECT_EQ(intersect_galloping(a, b).count, expected);
        EXPECT_EQ(intersect_block_merge(a, b).count, expected);
    }
}

INSTANTIATE_TEST_SUITE_P(SizeGrid, IntersectionRandomTest,
                         ::testing::Combine(::testing::Values(0, 1, 5, 32, 200),
                                            ::testing::Values(0, 1, 5, 32, 200)));

TEST(Intersection, MergeOpsLinear) {
    const std::vector<VertexId> a{1, 2, 3, 4, 5};
    const std::vector<VertexId> b{6, 7, 8};
    const auto r = intersect_merge(a, b);
    EXPECT_EQ(r.count, 0u);
    EXPECT_LE(r.ops, a.size() + b.size());
    EXPECT_GE(r.ops, std::min(a.size(), b.size()));
}

TEST(Intersection, AdaptivePicksCheaperSide) {
    std::vector<VertexId> big(4096);
    for (std::size_t i = 0; i < big.size(); ++i) { big[i] = i; }
    const std::vector<VertexId> tiny{5};
    const AdaptiveIntersect adaptive(IntersectKind::kAdaptive);
    // Skewed: adaptive gallops and must cost ~log, not ~|big|.
    EXPECT_LT(adaptive.count(tiny, big).ops, 40u);
    // Balanced: adaptive merges and must cost ~linear of the pair, not
    // |a|·log|b|.
    const auto balanced = adaptive.count(big, big);
    EXPECT_EQ(balanced.count, big.size());
    EXPECT_LE(balanced.ops, 2 * big.size());
}

TEST(Intersection, CollectReturnsElements) {
    const std::vector<VertexId> a{1, 3, 5, 7, 9};
    const std::vector<VertexId> b{3, 7, 11};
    std::vector<VertexId> out;
    const auto r = intersect_merge_collect(a, b, out);
    EXPECT_EQ(r.count, 2u);
    EXPECT_EQ(out, (std::vector<VertexId>{3, 7}));
}

TEST(Intersection, CollectAppends) {
    std::vector<VertexId> out{99};
    intersect_merge_collect(std::vector<VertexId>{1}, std::vector<VertexId>{1}, out);
    EXPECT_EQ(out, (std::vector<VertexId>{99, 1}));
}

}  // namespace
}  // namespace katric::seq
