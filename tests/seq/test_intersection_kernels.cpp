// Differential tests for the intersection kernel subsystem: every kernel
// (merge, galloping, SIMD block merge, SIMD galloping, hub-bitmap probe,
// hub∩hub word-AND, adaptive dispatch) against std::set_intersection on
// randomized sorted sets — including the SIMD tail lengths 0–17, collect
// order, and adversarial shapes (empty, disjoint, identical, one-element,
// 1:10⁶ skew). Each randomized case runs on both the AVX2 path and the
// forced-scalar fallback so the two stay bit-identical.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "seq/adaptive_intersect.hpp"
#include "seq/bitmap_index.hpp"
#include "seq/intersection.hpp"
#include "seq/intersection_simd.hpp"
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

std::vector<VertexId> reference_intersection(const std::vector<VertexId>& a,
                                             const std::vector<VertexId>& b) {
    std::vector<VertexId> out;
    std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                          std::back_inserter(out));
    return out;
}

/// Restores the SIMD toggle even when an assertion bails out of a test.
class ScopedSimdMode {
public:
    explicit ScopedSimdMode(bool force_scalar) { force_scalar_simd(force_scalar); }
    ~ScopedSimdMode() { force_scalar_simd(false); }
};

/// The hub kernels on the same operands: both non-empty rows are indexed
/// (a as hub 0, b as hub 1), so the bitmap probe, the word-AND and the
/// adaptive dispatcher's bitmap branches all run.
void expect_hub_kernels_match(const std::vector<VertexId>& a,
                              const std::vector<VertexId>& b,
                              const std::vector<VertexId>& expected) {
    HubBitmapIndex::Config config;
    config.degree_threshold = 1;
    config.max_hubs = 2;
    config.universe = 1 + std::max(a.empty() ? 0 : a.back(), b.empty() ? 0 : b.back());
    HubBitmapIndex index;
    const std::vector<VertexId> ids{0, 1};
    index.build(config, ids,
                [&](VertexId id) { return std::span<const VertexId>(id == 0 ? a : b); });
    std::vector<VertexId> collected;
    if (index.contains_hub(1)) {
        EXPECT_EQ(index.intersect_count(1, a).count, expected.size());
        index.intersect_collect(1, a, collected);
        EXPECT_EQ(collected, expected);
        if (index.contains_hub(0)) {
            EXPECT_EQ(index.intersect_hub_hub(0, 1).count, expected.size());
        }
    }
    const AdaptiveIntersect adaptive(IntersectKind::kAdaptive, &index);
    const std::vector<std::pair<VertexId, VertexId>> id_pairs = {
        {0, 1}, {graph::kInvalidVertex, 1}, {0, graph::kInvalidVertex}};
    for (const auto& [a_id, b_id] : id_pairs) {
        EXPECT_EQ(adaptive.count(a, b, a_id, b_id).count, expected.size());
        collected.clear();
        adaptive.collect(a, b, collected, a_id, b_id);
        EXPECT_EQ(collected, expected);
    }
}

void expect_all_kernels_match(const std::vector<VertexId>& a,
                              const std::vector<VertexId>& b) {
    const auto expected = reference_intersection(a, b);
    const auto n = static_cast<std::uint64_t>(expected.size());
    EXPECT_EQ(intersect_merge(a, b).count, n);
    EXPECT_EQ(intersect_galloping(a, b).count, n);
    EXPECT_EQ(intersect_galloping(b, a).count, n);
    EXPECT_EQ(intersect_simd_merge(a, b).count, n);
    EXPECT_EQ(intersect_simd_merge(b, a).count, n);
    EXPECT_EQ(intersect_simd_galloping(a, b).count, n);
    EXPECT_EQ(intersect_simd_galloping(b, a).count, n);

    std::vector<VertexId> collected;
    intersect_merge_collect(a, b, collected);
    EXPECT_EQ(collected, expected);
    collected.clear();
    intersect_simd_merge_collect(a, b, collected);
    EXPECT_EQ(collected, expected);
    collected.clear();
    intersect_galloping_collect(a, b, collected);
    EXPECT_EQ(collected, expected);
    collected.clear();
    intersect_simd_galloping_collect(a, b, collected);
    EXPECT_EQ(collected, expected);

    for (const auto kind : all_intersect_kinds()) {
        const AdaptiveIntersect isect(kind);
        EXPECT_EQ(isect.count(a, b).count, n) << intersect_kind_name(kind);
        collected.clear();
        isect.collect(a, b, collected);
        EXPECT_EQ(collected, expected) << intersect_kind_name(kind);
    }
    expect_hub_kernels_match(a, b, expected);
}

/// (size_a, size_b, force_scalar): the tail grid 0–17 crosses every SIMD
/// block boundary (blocks are 4 lanes) plus one-past-a-block shapes.
using TailParam = std::tuple<std::size_t, std::size_t, bool>;

class KernelTailTest : public ::testing::TestWithParam<TailParam> {};

TEST_P(KernelTailTest, AgreesWithMergeOracle) {
    const auto [size_a, size_b, force_scalar] = GetParam();
    ScopedSimdMode mode(force_scalar);
    Xoshiro256 rng(size_a * 131 + size_b * 7 + (force_scalar ? 1 : 0));
    for (int trial = 0; trial < 8; ++trial) {
        const auto a = sorted_sample(rng, size_a, 3 * (size_a + size_b) + 8);
        const auto b = sorted_sample(rng, size_b, 3 * (size_a + size_b) + 8);
        expect_all_kernels_match(a, b);
    }
}

std::string tail_name(const ::testing::TestParamInfo<TailParam>& info) {
    const auto [size_a, size_b, force_scalar] = info.param;
    return "a" + std::to_string(size_a) + "_b" + std::to_string(size_b)
           + (force_scalar ? "_scalar" : "_simd");
}

INSTANTIATE_TEST_SUITE_P(
    TailLengths, KernelTailTest,
    ::testing::Combine(::testing::Values<std::size_t>(0, 1, 2, 3, 4, 5, 7, 8, 9, 11,
                                                      12, 13, 15, 16, 17),
                       ::testing::Values<std::size_t>(0, 1, 3, 4, 5, 8, 13, 16, 17),
                       ::testing::Bool()),
    tail_name);

class KernelRandomTest : public ::testing::TestWithParam<bool> {};

TEST_P(KernelRandomTest, MediumSizesAgreeWithOracle) {
    ScopedSimdMode mode(GetParam());
    Xoshiro256 rng(GetParam() ? 99 : 7);
    for (int trial = 0; trial < 30; ++trial) {
        const auto size_a = static_cast<std::size_t>(rng.next_bounded(600));
        const auto size_b = static_cast<std::size_t>(rng.next_bounded(600));
        // Mix dense overlaps (small universe) with sparse ones.
        const std::uint64_t universe =
            (size_a + size_b + 2) * (1 + rng.next_bounded(6));
        const auto a = sorted_sample(rng, size_a, universe);
        const auto b = sorted_sample(rng, size_b, universe);
        expect_all_kernels_match(a, b);
    }
}

TEST_P(KernelRandomTest, AdversarialShapes) {
    ScopedSimdMode mode(GetParam());
    const std::vector<VertexId> empty;
    const std::vector<VertexId> one{5};
    std::vector<VertexId> evens;
    std::vector<VertexId> odds;
    for (VertexId i = 0; i < 100; ++i) {
        evens.push_back(2 * i);
        odds.push_back(2 * i + 1);
    }
    expect_all_kernels_match(empty, empty);
    expect_all_kernels_match(empty, evens);
    expect_all_kernels_match(evens, empty);
    expect_all_kernels_match(one, evens);
    expect_all_kernels_match(one, odds);
    expect_all_kernels_match(evens, odds);    // disjoint, interleaved
    expect_all_kernels_match(evens, evens);   // identical
}

TEST_P(KernelRandomTest, ExtremeSkewOneToMillion) {
    ScopedSimdMode mode(GetParam());
    // 1:10⁶ degree skew — the hub shape: a handful of probes against a
    // million-element row (duplicate-free, strided).
    std::vector<VertexId> big(1'000'000);
    for (std::size_t i = 0; i < big.size(); ++i) {
        big[i] = static_cast<VertexId>(3 * i);
    }
    const std::vector<VertexId> tiny{0, 2, 3, 1'499'999, 1'500'000, 2'999'997,
                                     5'000'000};
    expect_all_kernels_match(tiny, big);

    // The probe kernels must also be *cheap* here: measured ops well under
    // a linear merge scan.
    const auto merge = intersect_merge(tiny, big);
    const auto gallop = intersect_galloping(tiny, big);
    const auto simd_gallop = intersect_simd_galloping(tiny, big);
    EXPECT_EQ(gallop.count, merge.count);
    EXPECT_LT(gallop.ops, merge.ops / 100);
    EXPECT_LT(simd_gallop.ops, merge.ops / 100);
}

INSTANTIATE_TEST_SUITE_P(SimdAndScalar, KernelRandomTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& name_info) {
                             return name_info.param ? std::string("scalar")
                                                    : std::string("simd");
                         });

TEST(KernelHighBitIds, Bit63ValuesOrderExactlyLikeScalar) {
    // Values with bit 63 set (the streaming flag range): AVX2 only has a
    // signed 64-bit compare, so the window scan biases both sides by the
    // sign bit — without that, these probes silently under-count.
    const VertexId top = VertexId{1} << 63;
    std::vector<VertexId> big;
    for (VertexId i = 0; i < 64; ++i) { big.push_back(3 * i); }
    for (VertexId i = 0; i < 64; ++i) { big.push_back(top + 5 * i); }
    const std::vector<VertexId> small{0, 7, 189, top, top + 5, top + 7, top + 315};
    for (const bool force_scalar : {false, true}) {
        ScopedSimdMode mode(force_scalar);
        const auto expected = intersect_merge(small, big).count;
        EXPECT_EQ(expected, 5u);
        EXPECT_EQ(intersect_simd_galloping(small, big).count, expected);
        EXPECT_EQ(intersect_simd_merge(small, big).count, expected);
        EXPECT_EQ(intersect_galloping(small, big).count, expected);
    }
}

TEST(GallopingOps, AdaptsToClusteredMatches) {
    // All probes land in a tight prefix window: a shared monotone cursor
    // makes each probe O(1)-ish, far below |small|·log|large|.
    std::vector<VertexId> big(1 << 14);
    for (std::size_t i = 0; i < big.size(); ++i) { big[i] = i; }
    std::vector<VertexId> clustered;
    for (VertexId i = 100; i < 200; ++i) { clustered.push_back(i); }
    const auto r = intersect_galloping(clustered, big);
    EXPECT_EQ(r.count, clustered.size());
    EXPECT_LT(r.ops, clustered.size() * 6);
}

// --- hub bitmap index --------------------------------------------------

HubBitmapIndex::Config small_config(VertexId universe) {
    HubBitmapIndex::Config config;
    config.degree_threshold = 4;
    config.max_hubs = 8;
    config.universe = universe;
    return config;
}

TEST(HubBitmapIndex, CountsAndCollectsLikeMerge) {
    Xoshiro256 rng(5);
    const auto hub_row = sorted_sample(rng, 400, 2000);
    const auto probe = sorted_sample(rng, 60, 2000);
    HubBitmapIndex index;
    const std::vector<VertexId> ids{7};
    index.build(small_config(2000), ids,
                [&](VertexId) { return std::span<const VertexId>(hub_row); });
    ASSERT_TRUE(index.contains_hub(7));
    EXPECT_TRUE(index.covers(7, hub_row));

    const auto expected = reference_intersection(hub_row, probe);
    EXPECT_EQ(index.intersect_count(7, probe).count, expected.size());
    // ops: one probe per element — the hub's 400 entries never get scanned.
    EXPECT_EQ(index.intersect_count(7, probe).ops, probe.size());

    std::vector<VertexId> collected;
    index.intersect_collect(7, probe, collected);
    EXPECT_EQ(collected, expected);  // ascending — the merge-collect order
    EXPECT_TRUE(std::is_sorted(collected.begin(), collected.end()));
}

TEST(HubBitmapIndex, HubHubWordAndMatchesMerge) {
    Xoshiro256 rng(6);
    const auto row_a = sorted_sample(rng, 300, 1024);
    const auto row_b = sorted_sample(rng, 500, 1024);
    HubBitmapIndex index;
    const std::vector<VertexId> ids{1, 2};
    index.build(small_config(1024), ids, [&](VertexId id) {
        return std::span<const VertexId>(id == 1 ? row_a : row_b);
    });
    const auto expected = reference_intersection(row_a, row_b);
    const auto r = index.intersect_hub_hub(1, 2);
    EXPECT_EQ(r.count, expected.size());
    EXPECT_EQ(r.ops, index.words_per_row());
}

TEST(HubBitmapIndex, ThresholdAndTopKSelection) {
    std::vector<std::vector<VertexId>> rows(5);
    for (VertexId id = 0; id < 5; ++id) {
        for (VertexId i = 0; i < (id + 1) * 3; ++i) { rows[id].push_back(i * 2); }
    }
    HubBitmapIndex index;
    HubBitmapIndex::Config config;
    config.degree_threshold = 6;  // rows 1..4 qualify (sizes 6, 9, 12, 15)
    config.max_hubs = 2;          // …but only the two largest survive
    config.universe = 64;
    const std::vector<VertexId> ids{0, 1, 2, 3, 4};
    index.build(config, ids,
                [&](VertexId id) { return std::span<const VertexId>(rows[id]); });
    EXPECT_EQ(index.num_hubs(), 2u);
    EXPECT_FALSE(index.contains_hub(0));
    EXPECT_FALSE(index.contains_hub(1));
    EXPECT_TRUE(index.contains_hub(3));
    EXPECT_TRUE(index.contains_hub(4));
}

TEST(HubBitmapIndex, CoversRejectsForeignSpans) {
    std::vector<VertexId> row{1, 3, 5, 7, 9};
    const std::vector<VertexId> copy = row;  // same content, other storage
    HubBitmapIndex index;
    HubBitmapIndex::Config config;
    config.degree_threshold = 2;
    config.max_hubs = 4;
    config.universe = 16;
    const std::vector<VertexId> ids{0};
    index.build(config, ids, [&](VertexId) { return std::span<const VertexId>(row); });
    EXPECT_TRUE(index.covers(0, row));
    EXPECT_FALSE(index.covers(0, copy));
    EXPECT_FALSE(index.covers(0, std::span<const VertexId>(row).subspan(1)));
    EXPECT_FALSE(index.covers(1, row));
}

TEST(HubBitmapIndex, DirtyRebuildTracksRowChanges) {
    std::vector<std::vector<VertexId>> rows(3);
    rows[0] = {2, 4, 6, 8};
    rows[1] = {1, 3};
    rows[2] = {0, 5, 10, 15};
    HubBitmapIndex index;
    HubBitmapIndex::Config config;
    config.degree_threshold = 3;
    config.max_hubs = 4;
    config.universe = 32;
    const std::vector<VertexId> ids{0, 1, 2};
    const auto provider = [&](VertexId id) {
        return std::span<const VertexId>(rows[id]);
    };
    index.build(config, ids, provider);
    EXPECT_EQ(index.num_hubs(), 2u);  // rows 0 and 2

    // Row 0 shrinks below threshold, row 1 grows past it, row 2 mutates.
    rows[0] = {2};
    rows[1] = {1, 3, 9, 11};
    rows[2] = {0, 5, 10, 15, 20};
    index.mark_dirty(0);
    index.mark_dirty(1);
    index.mark_dirty(2);
    index.mark_dirty(2);  // duplicates fold away
    EXPECT_GT(index.rebuild_dirty(provider), 0u);
    EXPECT_EQ(index.num_dirty(), 0u);

    EXPECT_FALSE(index.contains_hub(0));
    ASSERT_TRUE(index.contains_hub(1));
    ASSERT_TRUE(index.contains_hub(2));
    const std::vector<VertexId> probe{9, 10, 20, 31};
    EXPECT_EQ(index.intersect_count(1, probe).count, 1u);  // 9
    EXPECT_EQ(index.intersect_count(2, probe).count, 2u);  // 10, 20
    EXPECT_TRUE(index.covers(1, rows[1]));
    EXPECT_TRUE(index.covers(2, rows[2]));
}

// --- adaptive dispatcher ------------------------------------------------

TEST(AdaptiveIntersect, RoutesHubRowsThroughBitmaps) {
    Xoshiro256 rng(11);
    const auto hub_row = sorted_sample(rng, 512, 4096);
    const auto other = sorted_sample(rng, 24, 4096);
    HubBitmapIndex index;
    const std::vector<VertexId> ids{42};
    index.build(small_config(4096), ids,
                [&](VertexId) { return std::span<const VertexId>(hub_row); });

    const AdaptiveIntersect adaptive(IntersectKind::kAdaptive, &index);
    const auto expected = reference_intersection(other, hub_row);
    const auto hit = adaptive.count(other, hub_row, graph::kInvalidVertex, 42);
    EXPECT_EQ(hit.count, expected.size());
    EXPECT_EQ(hit.ops, other.size());  // bitmap probes, not a merge

    // Unknown IDs (or foreign spans) fall back to the span kernels, with
    // identical counts.
    const auto miss = adaptive.count(other, hub_row);
    EXPECT_EQ(miss.count, expected.size());
    EXPECT_GT(miss.ops, other.size());

    std::vector<VertexId> collected;
    adaptive.collect(other, hub_row, collected, graph::kInvalidVertex, 42);
    EXPECT_EQ(collected, expected);
}

TEST(AdaptiveIntersect, EveryKindAgreesOnRandomInputs) {
    Xoshiro256 rng(13);
    for (int trial = 0; trial < 10; ++trial) {
        const auto a = sorted_sample(rng, 1 + rng.next_bounded(300), 2048);
        const auto b = sorted_sample(rng, 1 + rng.next_bounded(300), 2048);
        const auto expected = reference_intersection(a, b);
        for (const auto kind : all_intersect_kinds()) {
            const AdaptiveIntersect isect(kind);
            EXPECT_EQ(isect.count(a, b).count, expected.size())
                << intersect_kind_name(kind);
            std::vector<VertexId> collected;
            isect.collect(a, b, collected);
            EXPECT_EQ(collected, expected) << intersect_kind_name(kind);
        }
    }
}

TEST(CollectScratch, IsStableAndReusable) {
    auto& first = collect_scratch();
    first.assign({1, 2, 3});
    auto& second = collect_scratch();
    EXPECT_EQ(&first, &second);  // same thread ⇒ same buffer, no realloc churn
    EXPECT_EQ(second.size(), 3u);
}

}  // namespace
}  // namespace katric::seq
