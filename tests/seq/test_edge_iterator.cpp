#include "seq/edge_iterator.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "graph/orientation.hpp"
#include "support/test_graphs.hpp"

namespace katric::seq {
namespace {

using graph::VertexId;

TEST(BruteForce, KnownCounts) {
    EXPECT_EQ(count_brute_force(katric::test::triangle_graph()), 1u);
    EXPECT_EQ(count_brute_force(katric::test::bowtie_graph()), 2u);
    EXPECT_EQ(count_brute_force(katric::test::petersen_graph()), 0u);
    EXPECT_EQ(count_brute_force(katric::test::path_graph(10)), 0u);
    EXPECT_EQ(count_brute_force(katric::test::cycle_graph(3)), 1u);
    EXPECT_EQ(count_brute_force(katric::test::cycle_graph(5)), 0u);
    // K_n has C(n,3) triangles.
    EXPECT_EQ(count_brute_force(katric::test::complete_graph(8)), 56u);
}

class SeqCounterFamilyTest : public ::testing::TestWithParam<std::size_t> {
protected:
    [[nodiscard]] const katric::test::FamilyCase& family_case() const {
        static const auto cases = katric::test::family_cases();
        return cases[GetParam()];
    }
};

TEST_P(SeqCounterFamilyTest, EdgeIteratorMatchesBruteForce) {
    const auto& g = family_case().graph;
    const auto expected = count_brute_force(g);
    for (const auto kind : all_intersect_kinds()) {
        EXPECT_EQ(count_edge_iterator(g, kind).triangles, expected)
            << intersect_kind_name(kind);
    }
}

TEST_P(SeqCounterFamilyTest, WedgeCheckMatchesBruteForce) {
    const auto& g = family_case().graph;
    EXPECT_EQ(count_wedge_check(g).triangles, count_brute_force(g));
}

TEST_P(SeqCounterFamilyTest, IdOrientationCountsSame) {
    // Any total order gives the exact count; degree order only changes work.
    const auto& g = family_case().graph;
    EXPECT_EQ(count_oriented(graph::orient_by_id(g)).triangles, count_brute_force(g));
}

TEST_P(SeqCounterFamilyTest, PerVertexSumsToThreeTimesTotal) {
    const auto& g = family_case().graph;
    const auto delta = per_vertex_triangles(g);
    const auto total = std::accumulate(delta.begin(), delta.end(), std::uint64_t{0});
    EXPECT_EQ(total, 3 * count_brute_force(g));
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, SeqCounterFamilyTest,
                         ::testing::Range<std::size_t>(0, 7),
                         [](const auto& name_info) {
                             static const auto cases = katric::test::family_cases();
                             return cases[name_info.param].name;
                         });

TEST(PerVertexTriangles, BowtieCenterSeesBoth) {
    const auto delta = per_vertex_triangles(katric::test::bowtie_graph());
    EXPECT_EQ(delta[2], 2u);  // shared vertex
    EXPECT_EQ(delta[0], 1u);
    EXPECT_EQ(delta[4], 1u);
}

TEST(EdgeIterator, DegreeOrientationDoesLessWorkOnSkewedGraph) {
    const auto g = gen::generate_rmat(10, 8192, 77);
    const auto by_degree = count_oriented(graph::orient_by_degree(g));
    const auto by_id = count_oriented(graph::orient_by_id(g));
    EXPECT_EQ(by_degree.triangles, by_id.triangles);
    EXPECT_LT(by_degree.ops, by_id.ops);  // the whole point of ≺
}

TEST(EdgeIterator, EmptyGraph) {
    const auto r = count_edge_iterator(graph::build_undirected(graph::EdgeList{}, 0));
    EXPECT_EQ(r.triangles, 0u);
}

}  // namespace
}  // namespace katric::seq
