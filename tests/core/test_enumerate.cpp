#include "core/enumerate.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "gen/rmat.hpp"
#include "graph/distributed_graph.hpp"
#include "net/rank_pool.hpp"
#include "seq/edge_iterator.hpp"
#include "support/engine_query.hpp"
#include "support/test_graphs.hpp"

namespace katric::core {
namespace {

std::set<Triangle> brute_force_triangles(const graph::CsrGraph& g) {
    std::set<Triangle> result;
    for (VertexId a = 0; a < g.num_vertices(); ++a) {
        for (VertexId b : g.neighbors(a)) {
            if (b <= a) { continue; }
            for (VertexId c : g.neighbors(b)) {
                if (c > b && g.has_edge(a, c)) { result.insert(Triangle{a, b, c}); }
            }
        }
    }
    return result;
}

class EnumerateTest
    : public ::testing::TestWithParam<std::tuple<Algorithm, std::size_t, Rank>> {};

TEST_P(EnumerateTest, ExactlyOnceAndComplete) {
    const auto [algorithm, family_index, p] = GetParam();
    static const auto cases = katric::test::family_cases();
    const auto& g = cases[family_index].graph;

    RunSpec spec;
    spec.algorithm = algorithm;
    spec.num_ranks = p;
    const auto result = test::engine_enumerate(g, spec);

    const auto expected = brute_force_triangles(g);
    ASSERT_EQ(result.triangles.size(), expected.size());
    std::size_t index = 0;
    for (const auto& t : expected) {
        EXPECT_EQ(result.triangles[index], t) << "at index " << index;
        ++index;
    }
    // The per-rank emission counts partition the full set.
    const auto emitted = std::accumulate(result.found_per_rank.begin(),
                                         result.found_per_rank.end(), std::size_t{0});
    EXPECT_EQ(emitted, expected.size());
}

INSTANTIATE_TEST_SUITE_P(
    AlgorithmsFamiliesRanks, EnumerateTest,
    ::testing::Combine(::testing::Values(Algorithm::kDitric, Algorithm::kCetric,
                                         Algorithm::kCetric2),
                       ::testing::Values<std::size_t>(0, 1, 4, 5),
                       ::testing::Values<Rank>(1, 4, 9)));

TEST(Enumerate, CompleteGraphListsAllTriples) {
    RunSpec spec;
    spec.algorithm = Algorithm::kCetric;
    spec.num_ranks = 5;
    const auto result = test::engine_enumerate(katric::test::complete_graph(10), spec);
    EXPECT_EQ(result.triangles.size(), 120u);  // C(10,3)
    EXPECT_EQ(result.triangles.front(), (Triangle{0, 1, 2}));
    EXPECT_EQ(result.triangles.back(), (Triangle{7, 8, 9}));
}

TEST(Enumerate, TriangleFreeGraphIsEmpty) {
    RunSpec spec;
    spec.algorithm = Algorithm::kDitric2;
    spec.num_ranks = 3;
    const auto result = test::engine_enumerate(katric::test::petersen_graph(), spec);
    EXPECT_TRUE(result.triangles.empty());
    EXPECT_EQ(result.count.triangles, 0u);
}

/// The local phase emits its triangles from a parallel start round: with
/// helper threads every triangle still arrives exactly once, and the run's
/// simulated cost equals the inline run's.
TEST(Enumerate, HelperThreadsEmitEveryTriangleOnce) {
    net::RankPool inline_pool(0);
    net::RankPool helpers(3);
    const auto g = gen::generate_rmat(9, 4096, 5);
    const auto oracle = brute_force_triangles(g);
    const std::vector<Triangle> expected(oracle.begin(), oracle.end());
    for (const auto algorithm :
         {Algorithm::kDitric, Algorithm::kCetric, Algorithm::kCetric2}) {
        RunSpec spec;
        spec.algorithm = algorithm;
        spec.num_ranks = 8;
        const auto run = [&](net::RankPool& pool, std::vector<Triangle>& triangles) {
            auto views = graph::distribute(g, make_partition(g, spec));
            net::Simulator sim(spec.num_ranks, spec.network, pool);
            std::vector<std::vector<Triangle>> found(spec.num_ranks);
            const TriangleSink sink = [&](Rank finder, VertexId v, VertexId u,
                                          VertexId w) {
                std::array<VertexId, 3> t{v, u, w};
                std::sort(t.begin(), t.end());
                found[finder].push_back(Triangle{t[0], t[1], t[2]});
            };
            const auto result = dispatch_algorithm(sim, views, spec, &sink);
            for (const auto& part : found) {
                triangles.insert(triangles.end(), part.begin(), part.end());
            }
            std::sort(triangles.begin(), triangles.end());
            return result;
        };
        std::vector<Triangle> sequential;
        std::vector<Triangle> parallel;
        const auto reference = run(inline_pool, sequential);
        const auto result = run(helpers, parallel);
        const std::string what = algorithm_name(algorithm);
        EXPECT_TRUE(parallel == expected) << what;
        EXPECT_TRUE(sequential == expected) << what;
        EXPECT_EQ(result.triangles, expected.size()) << what;
        EXPECT_EQ(result.total_time, reference.total_time) << what;
        EXPECT_EQ(result.max_words_sent, reference.max_words_sent) << what;
        EXPECT_EQ(result.local_phase_triangles, reference.local_phase_triangles) << what;
    }
}

}  // namespace
}  // namespace katric::core
