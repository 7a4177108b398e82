// Differential tests for the intersection kernel subsystem: every kernel
// (merge, galloping, block merge, hub-bitmap probe, hub∩hub word-AND,
// adaptive dispatch) against std::set_intersection on randomized sorted
// sets — including the block tail lengths 0–17, collect order, and
// adversarial shapes (empty, disjoint, identical, one-element, 1:10⁶
// skew). The fixed rows run mark-and-probe on the host, so they must also
// charge exactly the ops of the reference kernel their kind names: merge
// rows intersect_merge's, adaptive rows intersect_block_merge's or
// intersect_galloping's. Each randomized case runs twice: on a freshly
// fixed adaptive row, and on one whose marks an earlier block-merge
// partner has already set.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "seq/adaptive_intersect.hpp"
#include "seq/bitmap_index.hpp"
#include "seq/intersection.hpp"
#include "util/assert.hpp"
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
    if (const auto* b_hub = index.lookup(1, b)) {
        EXPECT_EQ(index.intersect_count(*b_hub, a).count, expected.size());
        index.intersect_collect(*b_hub, a, collected);
        EXPECT_EQ(collected, expected);
        if (const auto* a_hub = index.lookup(0, a)) {
            EXPECT_EQ(index.intersect_hub_hub(*a_hub, *b_hub).count, expected.size());
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

/// The adaptive fixed row (no hub index) against the reference kernel its
/// decision table names: equal count, equal collected elements, and equal
/// charged ops. With `premarked`, the row first meets a block-merge partner
/// (itself), so `b` finds the row's marks already set.
void expect_adaptive_row_matches_reference(const std::vector<VertexId>& a,
                                           const std::vector<VertexId>& b,
                                           bool premarked) {
    const bool gallops = probe_search_pays_off(a.size(), b.size());
    const auto reference = gallops ? intersect_galloping(a, b) : intersect_block_merge(a, b);
    std::vector<VertexId> reference_out{7};  // collect appends
    const auto reference_collect = gallops
                                       ? intersect_galloping_collect(a, b, reference_out)
                                       : intersect_block_merge_collect(a, b, reference_out);
    const AdaptiveIntersect adaptive(IntersectKind::kAdaptive);
    {
        const auto row = adaptive.fix(a);
        if (premarked) {
            EXPECT_EQ(row.count(a).ops, intersect_block_merge(a, a).ops);
            EXPECT_EQ(merge_marks_set_on_this_thread(), a.size() + a.size() / 4);
        }
        const auto counted = row.count(b);
        EXPECT_EQ(counted.count, reference.count);
        EXPECT_EQ(counted.ops, reference.ops);
        std::vector<VertexId> out{7};
        const auto collected = row.collect(b, out);
        EXPECT_EQ(out, reference_out);
        EXPECT_EQ(collected.count, reference_collect.count);
        EXPECT_EQ(collected.ops, reference_collect.ops);
    }
    EXPECT_EQ(merge_marks_set_on_this_thread(), 0u);
}

void expect_all_kernels_match(const std::vector<VertexId>& a,
                              const std::vector<VertexId>& b, bool premarked) {
    const auto expected = reference_intersection(a, b);
    const auto n = static_cast<std::uint64_t>(expected.size());
    EXPECT_EQ(intersect_merge(a, b).count, n);
    EXPECT_EQ(intersect_galloping(a, b).count, n);
    EXPECT_EQ(intersect_galloping(b, a).count, n);
    EXPECT_EQ(intersect_block_merge(a, b).count, n);
    EXPECT_EQ(intersect_block_merge(b, a).count, n);

    std::vector<VertexId> collected;
    intersect_merge_collect(a, b, collected);
    EXPECT_EQ(collected, expected);
    collected.clear();
    intersect_block_merge_collect(a, b, collected);
    EXPECT_EQ(collected, expected);
    collected.clear();
    intersect_galloping_collect(a, b, collected);
    EXPECT_EQ(collected, expected);

    for (const auto kind : all_intersect_kinds()) {
        const AdaptiveIntersect isect(kind);
        EXPECT_EQ(isect.count(a, b).count, n) << intersect_kind_name(kind);
        collected.clear();
        isect.collect(a, b, collected);
        EXPECT_EQ(collected, expected) << intersect_kind_name(kind);
    }
    expect_adaptive_row_matches_reference(a, b, premarked);
    expect_adaptive_row_matches_reference(b, a, premarked);
    expect_hub_kernels_match(a, b, expected);
}

std::string marks_name(bool premarked) { return premarked ? "marked" : "fresh"; }

/// (size_a, size_b, premarked): the tail grid 0–17 crosses every block
/// boundary (blocks are 4 elements) plus one-past-a-block shapes.
using TailParam = std::tuple<std::size_t, std::size_t, bool>;

class KernelTailTest : public ::testing::TestWithParam<TailParam> {};

TEST_P(KernelTailTest, AgreesWithMergeOracle) {
    const auto [size_a, size_b, premarked] = GetParam();
    Xoshiro256 rng(size_a * 131 + size_b * 7 + (premarked ? 1 : 0));
    for (int trial = 0; trial < 8; ++trial) {
        const auto a = sorted_sample(rng, size_a, 3 * (size_a + size_b) + 8);
        const auto b = sorted_sample(rng, size_b, 3 * (size_a + size_b) + 8);
        expect_all_kernels_match(a, b, premarked);
    }
}

std::string tail_name(const ::testing::TestParamInfo<TailParam>& info) {
    const auto [size_a, size_b, premarked] = info.param;
    return "a" + std::to_string(size_a) + "_b" + std::to_string(size_b) + "_"
           + marks_name(premarked);
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
    Xoshiro256 rng(GetParam() ? 99 : 7);
    for (int trial = 0; trial < 30; ++trial) {
        const auto size_a = static_cast<std::size_t>(rng.next_bounded(600));
        const auto size_b = static_cast<std::size_t>(rng.next_bounded(600));
        // Mix dense overlaps (small universe) with sparse ones.
        const std::uint64_t universe =
            (size_a + size_b + 2) * (1 + rng.next_bounded(6));
        const auto a = sorted_sample(rng, size_a, universe);
        const auto b = sorted_sample(rng, size_b, universe);
        expect_all_kernels_match(a, b, GetParam());
    }
}

TEST_P(KernelRandomTest, AdversarialShapes) {
    const bool premarked = GetParam();
    const std::vector<VertexId> empty;
    const std::vector<VertexId> one{5};
    std::vector<VertexId> evens;
    std::vector<VertexId> odds;
    for (VertexId i = 0; i < 100; ++i) {
        evens.push_back(2 * i);
        odds.push_back(2 * i + 1);
    }
    expect_all_kernels_match(empty, empty, premarked);
    expect_all_kernels_match(empty, evens, premarked);
    expect_all_kernels_match(evens, empty, premarked);
    expect_all_kernels_match(one, evens, premarked);
    expect_all_kernels_match(one, odds, premarked);
    expect_all_kernels_match(evens, odds, premarked);    // disjoint, interleaved
    expect_all_kernels_match(evens, evens, premarked);   // identical
}

TEST_P(KernelRandomTest, ExtremeSkewOneToMillion) {
    // 1:10⁶ degree skew — the hub shape: a handful of probes against a
    // million-element row (duplicate-free, strided).
    std::vector<VertexId> big(1'000'000);
    for (std::size_t i = 0; i < big.size(); ++i) {
        big[i] = static_cast<VertexId>(3 * i);
    }
    const std::vector<VertexId> tiny{0, 2, 3, 1'499'999, 1'500'000, 2'999'997,
                                     5'000'000};
    expect_all_kernels_match(tiny, big, GetParam());

    // The probe kernels must also be *cheap* here: measured ops well under
    // a linear merge scan.
    const auto merge = intersect_merge(tiny, big);
    const auto gallop = intersect_galloping(tiny, big);
    EXPECT_EQ(gallop.count, merge.count);
    EXPECT_LT(gallop.ops, merge.ops / 100);
}

INSTANTIATE_TEST_SUITE_P(FreshAndMarked, KernelRandomTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& name_info) {
                             return marks_name(name_info.param);
                         });

TEST(KernelHighBitIds, Bit63ValuesOrderExactly) {
    // Values with bit 63 set (the streaming counter's flag range) must order
    // as unsigned in the span kernels. Fixed rows never see them: they hold
    // vertex IDs, which index the mark bitmaps.
    const VertexId top = VertexId{1} << 63;
    std::vector<VertexId> big;
    for (VertexId i = 0; i < 64; ++i) { big.push_back(3 * i); }
    for (VertexId i = 0; i < 64; ++i) { big.push_back(top + 5 * i); }
    const std::vector<VertexId> small{0, 7, 189, top, top + 5, top + 7, top + 315};
    const auto expected = intersect_merge(small, big).count;
    EXPECT_EQ(expected, 5u);
    EXPECT_EQ(intersect_galloping(small, big).count, expected);
    EXPECT_EQ(intersect_galloping(big, small).count, expected);
    EXPECT_EQ(intersect_block_merge(small, big).count, expected);
    EXPECT_EQ(intersect_block_merge(big, small).count, expected);
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
    const auto* hub = index.lookup(7, hub_row);
    ASSERT_NE(hub, nullptr);

    const auto expected = reference_intersection(hub_row, probe);
    EXPECT_EQ(index.intersect_count(*hub, probe).count, expected.size());
    // ops: one probe per element — the hub's 400 entries never get scanned.
    EXPECT_EQ(index.intersect_count(*hub, probe).ops, probe.size());

    std::vector<VertexId> collected;
    index.intersect_collect(*hub, probe, collected);
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
    const auto* a_hub = index.lookup(1, row_a);
    const auto* b_hub = index.lookup(2, row_b);
    ASSERT_NE(a_hub, nullptr);
    ASSERT_NE(b_hub, nullptr);
    const auto r = index.intersect_hub_hub(*a_hub, *b_hub);
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
    EXPECT_EQ(index.lookup(0, rows[0]), nullptr);
    EXPECT_EQ(index.lookup(1, rows[1]), nullptr);
    EXPECT_NE(index.lookup(3, rows[3]), nullptr);
    EXPECT_NE(index.lookup(4, rows[4]), nullptr);
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
    EXPECT_NE(index.lookup(0, row), nullptr);
    EXPECT_EQ(index.lookup(0, copy), nullptr);
    EXPECT_EQ(index.lookup(0, std::span<const VertexId>(row).subspan(1)), nullptr);
    EXPECT_EQ(index.lookup(1, row), nullptr);
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

    // Two hubs, and they are rows 1 and 2 over their current storage.
    EXPECT_EQ(index.num_hubs(), 2u);
    EXPECT_EQ(index.lookup(0, rows[0]), nullptr);
    const auto* hub1 = index.lookup(1, rows[1]);
    const auto* hub2 = index.lookup(2, rows[2]);
    ASSERT_NE(hub1, nullptr);
    ASSERT_NE(hub2, nullptr);
    const std::vector<VertexId> probe{9, 10, 20, 31};
    EXPECT_EQ(index.intersect_count(*hub1, probe).count, 1u);  // 9
    EXPECT_EQ(index.intersect_count(*hub2, probe).count, 2u);  // 10, 20
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

// --- merge mark-and-probe ---------------------------------------------

/// The merge kind's fixed row (and its two-span form) against the reference
/// merge: equal count, equal collected elements, and equal charged ops.
void expect_probe_matches_merge(const std::vector<VertexId>& a,
                                const std::vector<VertexId>& b, bool premarked = false) {
    const auto reference = intersect_merge(a, b);
    std::vector<VertexId> reference_out{7};  // collect appends
    const auto reference_collect = intersect_merge_collect(a, b, reference_out);
    const AdaptiveIntersect merge(IntersectKind::kMerge);
    {
        const auto row = merge.fix(a);
        const auto counted = row.count(b);
        EXPECT_EQ(counted.count, reference.count);
        EXPECT_EQ(counted.ops, reference.ops);
        std::vector<VertexId> out{7};
        const auto collected = row.collect(b, out);
        EXPECT_EQ(out, reference_out);
        EXPECT_EQ(collected.count, reference_collect.count);
        EXPECT_EQ(collected.ops, reference_collect.ops);
    }
    const auto counted = merge.count(a, b);
    EXPECT_EQ(counted.count, reference.count);
    EXPECT_EQ(counted.ops, reference.ops);
    std::vector<VertexId> out{7};
    EXPECT_EQ(merge.collect(a, b, out).ops, reference_collect.ops);
    EXPECT_EQ(out, reference_out);
    EXPECT_EQ(merge_marks_set_on_this_thread(), 0u);
    expect_adaptive_row_matches_reference(a, b, premarked);
}

std::vector<VertexId> range_row(VertexId first, VertexId last, VertexId step = 1) {
    std::vector<VertexId> row;
    for (VertexId w = first; w <= last; w += step) { row.push_back(w); }
    return row;
}

TEST_P(KernelRandomTest, MergeProbeMatchesReferenceMerge) {
    Xoshiro256 rng(GetParam() ? 17 : 19);
    const AdaptiveIntersect merge(IntersectKind::kMerge);
    for (int trial = 0; trial < 40; ++trial) {
        const std::uint64_t universe = 1 + rng.next_bounded(3000);
        const auto a = sorted_sample(rng, rng.next_bounded(std::min<std::uint64_t>(
                                              universe, 300)),
                                     universe);
        // One fixed row against many partners, as the counting loops use it.
        const auto row = merge.fix(a);
        for (int partner = 0; partner < 8; ++partner) {
            const auto b = sorted_sample(
                rng, rng.next_bounded(std::min<std::uint64_t>(universe, 300)), universe);
            const auto reference = intersect_merge(a, b);
            const auto counted = row.count(b);
            EXPECT_EQ(counted.count, reference.count);
            EXPECT_EQ(counted.ops, reference.ops);
            std::vector<VertexId> expected;
            intersect_merge_collect(a, b, expected);
            std::vector<VertexId> out;
            EXPECT_EQ(row.collect(b, out).ops, reference.ops);
            EXPECT_EQ(out, expected);
        }
    }
    EXPECT_EQ(merge_marks_set_on_this_thread(), 0u);
}

TEST_P(KernelRandomTest, MergeProbeAdversarialPairs) {
    using Row = std::vector<VertexId>;
    const Row empty;
    const auto evens = range_row(0, 198, 2);
    const auto odds = range_row(1, 199, 2);
    const std::vector<std::pair<Row, Row>> pairs = {
        {empty, empty},
        {empty, evens},
        {evens, empty},
        {evens, odds},                         // disjoint, interleaved
        {range_row(0, 9), range_row(20, 29)},  // disjoint, a wholly below
        {range_row(20, 29), range_row(0, 9)},  // disjoint, b wholly below
        {evens, evens},                        // identical
        {Row{3, 9, 40}, Row{1, 9, 40}},        // equal last elements
        {Row{5, 6, 40}, Row{40}},
        {range_row(0, 9), range_row(5, 50)},  // overlap, a ends first
        {range_row(5, 50), range_row(0, 9)},  // overlap, b ends first
        {Row{5}, Row{5}},                     // single elements
        {Row{5}, Row{6}},
        {Row{6}, Row{5}},
        {Row{5}, evens},
        {odds, Row{5}},
        // IDs on the bitmap's word edges.
        {Row{63, 64, 127, 128}, Row{63, 128}},
        {Row{63, 128}, Row{62, 63, 64, 127, 128, 129}},
        {Row{0, 64, 128}, Row{63, 127}},
        {range_row(60, 132), range_row(63, 128, 65)},
    };
    for (const auto& [a, b] : pairs) {
        SCOPED_TRACE(::testing::Message() << "|a|=" << a.size() << " |b|=" << b.size());
        expect_probe_matches_merge(a, b, GetParam());
    }
}

TEST(MergeProbe, LaterRowGrowsTheBitmap) {
    // The first row sizes the thread's bitmap to one word; a later row's
    // largest ID must grow it, and probes past the old end must still see
    // only that row's marks.
    expect_probe_matches_merge({1, 5, 63}, {5, 63});
    const std::vector<VertexId> wide{2, 63, 64, 4095, 100'000};
    expect_probe_matches_merge(wide, {63, 64, 99'999, 100'000, 100'001});
    expect_probe_matches_merge({1, 5, 63}, wide);
}

TEST(MergeProbe, RecordsOneMergeChoicePerPartner) {
    obs::KernelStats stats;
    const AdaptiveIntersect merge(IntersectKind::kMerge, nullptr, &stats);
    const std::vector<VertexId> a{1, 2, 3, 4};
    {
        const auto row = merge.fix(a);
        (void)row.count(std::vector<VertexId>{2, 3});
        std::vector<VertexId> out;
        row.collect(std::vector<VertexId>{}, out);
    }
    EXPECT_EQ(stats.total(obs::KernelChoice::kMerge), 2u);
    EXPECT_EQ(stats.total(), 2u);
}

TEST(MergeProbe, ThrowInsideAFixedRowLeavesNoStaleMarks) {
    const AdaptiveIntersect merge(IntersectKind::kMerge);
    const auto a = range_row(0, 300, 3);
    EXPECT_THROW(
        {
            const auto row = merge.fix(a);
            EXPECT_GT(merge_marks_set_on_this_thread(), 0u);
            throw std::runtime_error("handler failed mid-row");
        },
        std::runtime_error);
    EXPECT_EQ(merge_marks_set_on_this_thread(), 0u);
    // A stale mark of a would make these partners over-count.
    const auto next = range_row(1, 301, 5);
    const auto b = range_row(0, 300, 2);
    const auto row = merge.fix(next);
    const auto counted = row.count(b);
    EXPECT_EQ(counted.count, intersect_merge(next, b).count);
    EXPECT_EQ(counted.ops, intersect_merge(next, b).ops);
}

TEST(MergeProbe, SecondFixOnOneThreadFailsLoudly) {
    const AdaptiveIntersect merge(IntersectKind::kMerge);
    const std::vector<VertexId> a{1, 4, 9};
    const std::vector<VertexId> other{2, 4, 8};
    {
        const auto row = merge.fix(a);
        EXPECT_THROW((void)merge.fix(other), assertion_error);
        EXPECT_THROW((void)merge.count(other, a), assertion_error);
        // The first row's marks are untouched by the failed fixes.
        EXPECT_EQ(row.count(other).count, 1u);
        EXPECT_EQ(merge_marks_set_on_this_thread(), a.size());
    }
    EXPECT_EQ(merge_marks_set_on_this_thread(), 0u);
    // An adaptive row owns the thread's marks too, even before it sets any.
    const AdaptiveIntersect adaptive(IntersectKind::kAdaptive);
    {
        const auto outer = adaptive.fix(a);
        EXPECT_THROW((void)merge.fix(other), assertion_error);
        EXPECT_THROW((void)adaptive.fix(other), assertion_error);
        EXPECT_EQ(outer.count(other).count, 1u);
    }
    EXPECT_EQ(merge_marks_set_on_this_thread(), 0u);
}

// --- adaptive rows: lazy marks -----------------------------------------

TEST(AdaptiveRow, GallopingAndHubPartnersSetNoMarks) {
    const auto hub_row = range_row(0, 4000, 2);
    HubBitmapIndex index;
    const std::vector<VertexId> ids{42};
    index.build(small_config(4001), ids,
                [&](VertexId) { return std::span<const VertexId>(hub_row); });
    obs::KernelStats stats;
    const AdaptiveIntersect adaptive(IntersectKind::kAdaptive, &index, &stats);
    const auto a = range_row(10, 40, 3);
    const auto long_row = range_row(0, 3000, 5);
    const auto row = adaptive.fix(a);
    EXPECT_EQ(row.count(hub_row, 42).count, intersect_merge(a, hub_row).count);
    EXPECT_EQ(row.count(long_row).count, intersect_merge(a, long_row).count);
    std::vector<VertexId> out;
    row.collect(long_row, out);
    EXPECT_EQ(stats.total(obs::KernelChoice::kBitmapProbe), 1u);
    EXPECT_EQ(stats.total(obs::KernelChoice::kGalloping), 2u);
    EXPECT_EQ(merge_marks_set_on_this_thread(), 0u);
    // The first balanced partner marks the row and its block maxima.
    const auto balanced = range_row(12, 44, 2);
    ASSERT_FALSE(probe_search_pays_off(a.size(), balanced.size()));
    EXPECT_EQ(row.count(balanced).ops, intersect_block_merge(a, balanced).ops);
    EXPECT_EQ(merge_marks_set_on_this_thread(), a.size() + a.size() / 4);
}

TEST(AdaptiveRow, ThrowAfterABlockMergePartnerLeavesNoStaleMarks) {
    const AdaptiveIntersect adaptive(IntersectKind::kAdaptive);
    const auto a = range_row(0, 300, 3);
    const auto b = range_row(0, 300, 2);
    EXPECT_THROW(
        {
            const auto row = adaptive.fix(a);
            (void)row.count(b);
            EXPECT_GT(merge_marks_set_on_this_thread(), 0u);
            throw std::runtime_error("handler failed mid-row");
        },
        std::runtime_error);
    EXPECT_EQ(merge_marks_set_on_this_thread(), 0u);
    // A stale mark of a would make the next row's partners over-count.
    const auto next = range_row(1, 301, 5);
    const auto row = adaptive.fix(next);
    const auto counted = row.count(b);
    EXPECT_EQ(counted.count, intersect_block_merge(next, b).count);
    EXPECT_EQ(counted.ops, intersect_block_merge(next, b).ops);
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
