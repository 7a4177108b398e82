#include "graph/load_balance.hpp"

#include <gtest/gtest.h>

#include "core/runner.hpp"
#include "seq/edge_iterator.hpp"
#include "support/oneshot.hpp"
#include "support/test_graphs.hpp"

namespace katric::graph {
namespace {

class CostPartitionTest
    : public ::testing::TestWithParam<std::tuple<CostFunction, Rank>> {};

TEST_P(CostPartitionTest, CoversAndBalancesCost) {
    const auto [fn, p] = GetParam();
    const auto g = gen::generate_rmat(10, 8192, 11);
    const auto partition = partition_by_cost(g, p, fn);
    EXPECT_EQ(partition.num_ranks(), p);
    EXPECT_EQ(partition.num_vertices(), g.num_vertices());

    const auto costs = vertex_costs(g, fn);
    std::uint64_t total = 0;
    std::uint64_t max_cost_vertex = 0;
    for (const auto c : costs) {
        total += c;
        max_cost_vertex = std::max(max_cost_vertex, c);
    }
    for (Rank i = 0; i < p; ++i) {
        std::uint64_t rank_cost = 0;
        for (VertexId v = partition.begin(i); v < partition.end(i); ++v) {
            rank_cost += costs[v];
        }
        // Contiguity caps achievable balance at share + one heaviest vertex.
        EXPECT_LE(rank_cost, total / p + max_cost_vertex + p) << "rank " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(
    FunctionsTimesRanks, CostPartitionTest,
    ::testing::Combine(::testing::Values(CostFunction::kUniform, CostFunction::kDegree,
                                         CostFunction::kDegreeSq,
                                         CostFunction::kOrientedWedges),
                       ::testing::Values<Rank>(2, 7, 16)));

TEST(LoadBalance, UniformCostMatchesUniformPartitionSizes) {
    const auto g = katric::test::complete_graph(64);
    const auto by_cost = partition_by_cost(g, 4, CostFunction::kUniform);
    const auto uniform = Partition1D::uniform(64, 4);
    for (Rank i = 0; i < 4; ++i) { EXPECT_EQ(by_cost.size(i), uniform.size(i)); }
}

TEST(LoadBalance, CountsUnaffectedByPartitionChoice) {
    const auto g = gen::generate_rhg(1024, 10.0, 2.8, 5);
    const auto expected = seq::count_edge_iterator(g).triangles;
    for (const auto fn : {CostFunction::kDegree, CostFunction::kDegreeSq,
                          CostFunction::kOrientedWedges}) {
        SCOPED_TRACE(cost_function_name(fn));
        const auto partition = partition_by_cost(g, 8, fn);
        auto views = distribute(g, partition);
        net::Simulator sim(8, net::NetworkConfig{});
        core::RunSpec spec;
        spec.algorithm = core::Algorithm::kCetric;
        spec.num_ranks = 8;
        test::preprocess_in_run(sim, views, spec.algorithm, spec.options);
        EXPECT_EQ(core::dispatch_algorithm(sim, views, spec).triangles, expected);
    }
}

TEST(LoadBalance, RedistributionVolumeProperties) {
    const auto g = gen::generate_rmat(9, 4096, 13);
    const auto uniform = Partition1D::uniform(g.num_vertices(), 8);
    const auto by_wedges = partition_by_cost(g, 8, CostFunction::kOrientedWedges);
    // Identity move is free; a real move costs at most the whole graph.
    EXPECT_EQ(redistribution_volume(g, uniform, uniform), 0u);
    const auto volume = redistribution_volume(g, uniform, by_wedges);
    EXPECT_LE(volume, g.num_vertices() + 2 * g.num_edges());
    // Symmetric in magnitude class: moving back costs the same.
    EXPECT_EQ(volume, redistribution_volume(g, by_wedges, uniform));
}

TEST(LoadBalance, WedgeCostReducesBottleneckWorkOnSkewedGraph) {
    // The point of the cost functions: the wedge-based split should lower
    // the maximum per-rank oriented-wedge load versus a uniform split.
    const auto g = gen::generate_rmat(11, 16384, 17);
    const auto costs = vertex_costs(g, CostFunction::kOrientedWedges);
    auto max_rank_cost = [&](const Partition1D& partition) {
        std::uint64_t worst = 0;
        for (Rank i = 0; i < partition.num_ranks(); ++i) {
            std::uint64_t rank_cost = 0;
            for (VertexId v = partition.begin(i); v < partition.end(i); ++v) {
                rank_cost += costs[v];
            }
            worst = std::max(worst, rank_cost);
        }
        return worst;
    };
    const auto uniform = Partition1D::uniform(g.num_vertices(), 16);
    const auto balanced = partition_by_cost(g, 16, CostFunction::kOrientedWedges);
    EXPECT_LT(max_rank_cost(balanced), max_rank_cost(uniform));
}

TEST(LoadBalance, NamesAreStable) {
    EXPECT_EQ(cost_function_name(CostFunction::kUniform), "uniform");
    EXPECT_EQ(cost_function_name(CostFunction::kOrientedWedges), "oriented-wedges");
}

}  // namespace
}  // namespace katric::graph
