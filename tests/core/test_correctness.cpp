#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "core/runner.hpp"
#include "seq/edge_iterator.hpp"
#include "support/engine_query.hpp"
#include "support/test_graphs.hpp"

namespace katric::core {
namespace {

using CaseParam = std::tuple<Algorithm, std::size_t /*family*/, Rank>;

class DistributedCorrectnessTest : public ::testing::TestWithParam<CaseParam> {};

TEST_P(DistributedCorrectnessTest, MatchesSequentialReference) {
    const auto [algorithm, family_index, p] = GetParam();
    static const auto cases = katric::test::family_cases();
    const auto& g = cases[family_index].graph;
    const auto expected = seq::count_edge_iterator(g).triangles;

    RunSpec spec;
    spec.algorithm = algorithm;
    spec.num_ranks = p;
    const auto result = test::engine_count(g, spec);
    ASSERT_FALSE(result.oom);
    EXPECT_EQ(result.triangles, expected);
    EXPECT_EQ(result.local_phase_triangles + result.global_phase_triangles, expected);
}

std::string case_name(const ::testing::TestParamInfo<CaseParam>& info) {
    static const auto cases = katric::test::family_cases();
    const auto [algorithm, family_index, p] = info.param;
    std::string name = algorithm_name(algorithm) + "_" + cases[family_index].name + "_p"
                       + std::to_string(p);
    for (auto& c : name) {
        if (c == '-') { c = '_'; }
    }
    return name;
}

INSTANTIATE_TEST_SUITE_P(
    AlgorithmsFamiliesRanks, DistributedCorrectnessTest,
    ::testing::Combine(::testing::Values(Algorithm::kDitric, Algorithm::kDitric2,
                                         Algorithm::kCetric, Algorithm::kCetric2,
                                         Algorithm::kTricStyle, Algorithm::kHavoqgtStyle,
                                         Algorithm::kEdgeIteratorUnbuffered),
                       ::testing::Range<std::size_t>(0, 7),
                       ::testing::Values<Rank>(1, 3, 8)),
    case_name);

// Non-power-of-two and degenerate rank counts on one rich instance.
class OddRanksTest : public ::testing::TestWithParam<Rank> {};

TEST_P(OddRanksTest, AllAlgorithmsAgree) {
    const auto g = gen::generate_rgg2d(300, gen::rgg2d_radius_for_degree(300, 10.0), 123);
    const auto expected = seq::count_edge_iterator(g).triangles;
    ASSERT_GT(expected, 0u);
    for (const Algorithm algorithm : all_algorithms()) {
        SCOPED_TRACE(algorithm_name(algorithm));
        RunSpec spec;
        spec.algorithm = algorithm;
        spec.num_ranks = GetParam();
        const auto result = test::engine_count(g, spec);
        ASSERT_FALSE(result.oom);
        EXPECT_EQ(result.triangles, expected);
    }
}

INSTANTIATE_TEST_SUITE_P(RankSweep, OddRanksTest,
                         ::testing::Values<Rank>(1, 2, 3, 5, 7, 11, 16, 29));

TEST(DistributedCorrectness, MorePartsThanVerticesStillExact) {
    const auto g = katric::test::complete_graph(6);
    for (const Algorithm algorithm : all_algorithms()) {
        SCOPED_TRACE(algorithm_name(algorithm));
        RunSpec spec;
        spec.algorithm = algorithm;
        spec.num_ranks = 13;
        spec.partition = PartitionStrategy::kUniformVertices;
        EXPECT_EQ(test::engine_count(g, spec).triangles, 20u);
    }
}

TEST(DistributedCorrectness, UniformAndEdgeBalancedPartitionsAgree) {
    const auto g = gen::generate_rmat(9, 4096, 9);
    const auto expected = seq::count_edge_iterator(g).triangles;
    for (const auto strategy :
         {PartitionStrategy::kUniformVertices, PartitionStrategy::kBalancedEdges}) {
        RunSpec spec;
        spec.algorithm = Algorithm::kCetric;
        spec.num_ranks = 8;
        spec.partition = strategy;
        EXPECT_EQ(test::engine_count(g, spec).triangles, expected);
    }
}

TEST(DistributedCorrectness, IntersectionKernelChoiceIsTransparent) {
    const auto g = gen::generate_rhg(512, 8.0, 2.8, 3);
    const auto expected = seq::count_edge_iterator(g).triangles;
    for (const auto kind : seq::all_intersect_kinds()) {
        RunSpec spec;
        spec.algorithm = Algorithm::kDitric;
        spec.num_ranks = 6;
        spec.options.intersect = kind;
        // A tiny threshold makes nearly every row a hub, so the bitmap
        // kernels really fire instead of quietly falling back.
        spec.options.hub_threshold = 2;
        EXPECT_EQ(test::engine_count(g, spec).triangles, expected)
            << seq::intersect_kind_name(kind);
    }
}

TEST(DistributedCorrectness, AdaptiveMatchesMergeBitIdenticallyAcrossAlgorithms) {
    // The acceptance property of the kernel subsystem: --intersect=adaptive
    // must be invisible in every counting result, per phase, for every
    // algorithm that builds hub bitmaps (preprocessing family) and the
    // baselines that never do.
    const auto g = gen::generate_rmat(9, 4096, 31);  // skewed: real hubs
    for (const Algorithm algorithm : all_algorithms()) {
        RunSpec merge_spec;
        merge_spec.algorithm = algorithm;
        merge_spec.num_ranks = 7;
        merge_spec.options.intersect = seq::IntersectKind::kMerge;
        RunSpec adaptive_spec = merge_spec;
        adaptive_spec.options.intersect = seq::IntersectKind::kAdaptive;
        adaptive_spec.options.hub_threshold = 4;
        const auto expected = test::engine_count(g, merge_spec);
        const auto actual = test::engine_count(g, adaptive_spec);
        ASSERT_FALSE(expected.oom);
        ASSERT_FALSE(actual.oom);
        EXPECT_EQ(actual.triangles, expected.triangles) << algorithm_name(algorithm);
        EXPECT_EQ(actual.local_phase_triangles, expected.local_phase_triangles)
            << algorithm_name(algorithm);
        EXPECT_EQ(actual.global_phase_triangles, expected.global_phase_triangles)
            << algorithm_name(algorithm);
    }
}

TEST(DistributedCorrectness, TinyThresholdForcesManyFlushesButStaysExact) {
    const auto g = gen::generate_gnm(400, 3200, 5);
    const auto expected = seq::count_edge_iterator(g).triangles;
    RunSpec spec;
    spec.algorithm = Algorithm::kDitric;
    spec.num_ranks = 8;
    spec.options.buffer_threshold_words = 8;  // pathological δ
    EXPECT_EQ(test::engine_count(g, spec).triangles, expected);

    spec.algorithm = Algorithm::kCetric2;
    EXPECT_EQ(test::engine_count(g, spec).triangles, expected);
}

TEST(DistributedCorrectness, EmptyAndEdgelessGraphs) {
    const auto empty = graph::build_undirected(graph::EdgeList{}, 0);
    const auto edgeless = graph::build_undirected(graph::EdgeList{}, 50);
    for (const Algorithm algorithm : all_algorithms()) {
        RunSpec spec;
        spec.algorithm = algorithm;
        spec.num_ranks = 4;
        spec.partition = PartitionStrategy::kUniformVertices;
        EXPECT_EQ(test::engine_count(empty, spec).triangles, 0u);
        EXPECT_EQ(test::engine_count(edgeless, spec).triangles, 0u);
    }
}

TEST(DistributedCorrectness, SingleRankEqualsSequentialEverywhere) {
    for (const auto& fc : katric::test::family_cases()) {
        SCOPED_TRACE(fc.name);
        const auto expected = seq::count_edge_iterator(fc.graph).triangles;
        for (const Algorithm algorithm : all_algorithms()) {
            RunSpec spec;
            spec.algorithm = algorithm;
            spec.num_ranks = 1;
            const auto result = test::engine_count(fc.graph, spec);
            EXPECT_EQ(result.triangles, expected) << algorithm_name(algorithm);
            // p = 1: everything is local, nothing crosses the network.
            EXPECT_EQ(result.total_words_sent, 0u) << algorithm_name(algorithm);
        }
    }
}

}  // namespace
}  // namespace katric::core

namespace katric::core {
namespace {

class TerminationDetectionTest : public ::testing::TestWithParam<Algorithm> {};

TEST_P(TerminationDetectionTest, VerdictCoincidesWithExactCount) {
    const auto g = gen::generate_rhg(800, 10.0, 2.8, 21);
    const auto expected = seq::count_edge_iterator(g).triangles;
    RunSpec spec;
    spec.algorithm = GetParam();
    spec.num_ranks = 8;
    spec.options.detect_termination = true;
    const auto result = test::engine_count(g, spec);
    ASSERT_FALSE(result.oom);
    EXPECT_EQ(result.triangles, expected);
}

TEST_P(TerminationDetectionTest, ProtocolCostsExtraMessagesOnly) {
    const auto g = gen::generate_gnm(600, 4800, 23);
    RunSpec spec;
    spec.algorithm = GetParam();
    spec.num_ranks = 8;
    const auto omniscient = test::engine_count(g, spec);
    spec.options.detect_termination = true;
    const auto detected = test::engine_count(g, spec);
    EXPECT_EQ(detected.triangles, omniscient.triangles);
    // Control traffic (reports + verdicts) adds messages and time, never
    // removes any.
    EXPECT_GT(detected.total_messages_sent, omniscient.total_messages_sent);
    EXPECT_GE(detected.total_time, omniscient.total_time);
}

INSTANTIATE_TEST_SUITE_P(EdgeIteratorFamily, TerminationDetectionTest,
                         ::testing::Values(Algorithm::kDitric, Algorithm::kDitric2,
                                           Algorithm::kEdgeIteratorUnbuffered));
// The contracted exchange runs the same detector: a missing verdict would
// fail the run's termination assertion.
INSTANTIATE_TEST_SUITE_P(ContractedExchange, TerminationDetectionTest,
                         ::testing::Values(Algorithm::kCetric, Algorithm::kCetric2));

}  // namespace
}  // namespace katric::core
