#include <gtest/gtest.h>

#include <set>

#include "core/runner.hpp"
#include "graph/distributed_graph.hpp"
#include "seq/edge_iterator.hpp"
#include "support/engine_query.hpp"
#include "support/oracle.hpp"
#include "support/test_graphs.hpp"

namespace katric::core {
namespace {

/// Classifies every triangle of g under a partition into types 1/2/3
/// (Section IV-C, Fig. 4a): a type-k triangle's vertices lie on k ranks.
struct TypeCounts {
    std::uint64_t type1 = 0;
    std::uint64_t type2 = 0;
    std::uint64_t type3 = 0;
};

TypeCounts classify(const graph::CsrGraph& g, const graph::Partition1D& partition) {
    TypeCounts counts;
    for (const auto& [u, v, w] : test::brute_force_triangles(g)) {
        const std::set<Rank> ranks{partition.rank_of(u), partition.rank_of(v),
                                   partition.rank_of(w)};
        auto& type = ranks.size() == 1   ? counts.type1
                     : ranks.size() == 2 ? counts.type2
                                         : counts.type3;
        ++type;
    }
    return counts;
}

class CetricPhaseTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, Rank>> {};

TEST_P(CetricPhaseTest, LocalPhaseFindsType12GlobalFindsType3) {
    const auto [family_index, p] = GetParam();
    static const auto cases = katric::test::family_cases();
    const auto& g = cases[family_index].graph;

    RunSpec spec;
    spec.algorithm = Algorithm::kCetric;
    spec.num_ranks = p;
    const auto partition = make_partition(g, spec);
    const auto types = classify(g, partition);

    const auto result = test::engine_count(g, spec);
    EXPECT_EQ(result.local_phase_triangles, types.type1 + types.type2)
        << "local phase must find exactly the type-1+type-2 triangles";
    EXPECT_EQ(result.global_phase_triangles, types.type3)
        << "global phase must find exactly the type-3 triangles";
}

INSTANTIATE_TEST_SUITE_P(FamiliesTimesRanks, CetricPhaseTest,
                         ::testing::Combine(::testing::Range<std::size_t>(0, 7),
                                            ::testing::Values<Rank>(2, 4, 7)));

TEST(CetricProperties, ExpandedLocalPhaseExactAtWordBoundaries) {
    // The expanded local phase looks up A(u) of every ghost u through the
    // view's ghost rank words. Ghosts on the first and last bit of a word,
    // in the partial last word, and a hub that is a ghost on every other
    // rank must all count exactly, under both intersection kinds.
    std::vector<std::pair<std::string, graph::CsrGraph>> graphs;
    graphs.emplace_back("word boundaries", katric::test::word_boundary_graph());
    for (const VertexId hub : {VertexId{0}, VertexId{75}, VertexId{149}}) {
        graphs.emplace_back("star, hub " + std::to_string(hub),
                            katric::test::star_graph(150, hub));
        graphs.emplace_back("wheel, hub " + std::to_string(hub),
                            katric::test::star_graph(150, hub, /*rim=*/true));
    }
    // A filter this tight is longer than every short contracted list, so the
    // adaptive encoding ships raw lists only and CETRIC-AMQ is exact.
    AmqOptions raw_lists;
    raw_lists.target_fpr = 1e-12;
    raw_lists.adaptive = true;
    for (const auto& [name, g] : graphs) {
        const auto exact = seq::count_edge_iterator(g).triangles;
        for (const Rank p : {2u, 3u, 5u}) {
            for (const auto kind : seq::all_intersect_kinds()) {
                SCOPED_TRACE(name + ", p = " + std::to_string(p) + ", "
                             + seq::intersect_kind_name(kind));
                RunSpec spec;
                spec.num_ranks = p;
                spec.options.intersect = kind;
                for (const auto algorithm : {Algorithm::kCetric, Algorithm::kCetric2}) {
                    spec.algorithm = algorithm;
                    EXPECT_EQ(test::engine_count(g, spec).triangles, exact)
                        << algorithm_name(algorithm);
                }
                spec.algorithm = Algorithm::kCetric;
                EXPECT_DOUBLE_EQ(test::engine_approx(g, spec, raw_lists).estimated_triangles,
                                 static_cast<double>(exact))
                    << "CETRIC-AMQ";
            }
        }
    }
}

TEST(CetricProperties, GlobalPhaseVolumeBoundedByCutStructure) {
    // CETRIC's communication volume depends only on the cut graph: on a
    // locality-rich geometric instance it must be well below DITRIC's, which
    // ships full neighborhoods.
    const auto g = gen::generate_rgg2d(2048, gen::rgg2d_radius_for_degree(2048, 16.0), 8);
    RunSpec cetric;
    cetric.algorithm = Algorithm::kCetric;
    cetric.num_ranks = 8;
    RunSpec ditric = cetric;
    ditric.algorithm = Algorithm::kDitric;
    const auto cetric_result = test::engine_count(g, cetric);
    const auto ditric_result = test::engine_count(g, ditric);
    EXPECT_EQ(cetric_result.triangles, ditric_result.triangles);
    EXPECT_LT(cetric_result.total_words_sent, ditric_result.total_words_sent);
    EXPECT_LT(cetric_result.max_words_sent, ditric_result.max_words_sent);
}

TEST(CetricProperties, NoLocalityMeansNoVolumeWin) {
    // GNM has no locality: contraction removes few edges, so CETRIC's volume
    // is not substantially below DITRIC's (the paper's Fig. 5, GNM column).
    const auto g = gen::generate_gnm(2048, 2048 * 8, 4);
    RunSpec cetric;
    cetric.algorithm = Algorithm::kCetric;
    cetric.num_ranks = 8;
    RunSpec ditric = cetric;
    ditric.algorithm = Algorithm::kDitric;
    const auto cetric_result = test::engine_count(g, cetric);
    const auto ditric_result = test::engine_count(g, ditric);
    EXPECT_GT(static_cast<double>(cetric_result.total_words_sent),
              0.5 * static_cast<double>(ditric_result.total_words_sent));
}

TEST(CetricProperties, ContractedSizeEqualsOrientedCutEdges) {
    const auto g = gen::generate_rhg(1024, 10.0, 2.8, 6);
    const auto partition = graph::Partition1D::uniform(g.num_vertices(), 4);
    auto views = graph::distribute(g, partition);
    graph::EdgeId contracted_total = 0;
    for (auto& view : views) {
        view.fill_ghost_degrees_from(g);
        view.build_oriented();
        contracted_total += view.contracted_size();
    }
    // Each cut edge appears in exactly one contracted list (at its
    // ≺-smaller endpoint's owner).
    graph::EdgeId cut_edges = 0;
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
        for (VertexId u : g.neighbors(v)) {
            if (v < u && partition.rank_of(v) != partition.rank_of(u)) { ++cut_edges; }
        }
    }
    EXPECT_EQ(contracted_total, cut_edges);
}

TEST(CetricProperties, PhaseTimesArePopulated) {
    const auto g = gen::generate_rgg2d(512, gen::rgg2d_radius_for_degree(512, 12.0), 2);
    RunSpec spec;
    spec.algorithm = Algorithm::kCetric2;
    spec.num_ranks = 8;
    const auto result = test::engine_count(g, spec);
    EXPECT_GT(result.preprocessing_time, 0.0);
    EXPECT_GT(result.local_time, 0.0);
    EXPECT_GT(result.contraction_time, 0.0);
    EXPECT_GT(result.global_time, 0.0);
    EXPECT_GT(result.reduce_time, 0.0);
    EXPECT_NEAR(result.total_time,
                result.preprocessing_time + result.local_time + result.contraction_time
                    + result.global_time + result.reduce_time,
                1e-9);
}

TEST(CetricProperties, DitricHasNoContractionPhase) {
    const auto g = gen::generate_rgg2d(512, gen::rgg2d_radius_for_degree(512, 12.0), 2);
    RunSpec spec;
    spec.algorithm = Algorithm::kDitric;
    spec.num_ranks = 4;
    const auto result = test::engine_count(g, spec);
    EXPECT_EQ(result.contraction_time, 0.0);
}

}  // namespace
}  // namespace katric::core
