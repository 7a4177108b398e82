#include <gtest/gtest.h>

#include "core/dist_lcc.hpp"
#include "core/runner.hpp"
#include "gen/proxies.hpp"
#include "graph/graph_stats.hpp"
#include "graph/io.hpp"
#include "seq/edge_iterator.hpp"
#include "seq/lcc.hpp"
#include "support/engine_query.hpp"
#include "support/scratch_dir.hpp"
#include "support/test_graphs.hpp"

namespace katric {
namespace {

using core::Algorithm;
using core::RunSpec;

TEST(Pipeline, GenerateDistributeCountValidateEveryProxy) {
    // End-to-end over all eight Table I proxies with the paper's main
    // algorithms at a moderate rank count.
    for (const auto& spec_entry : gen::proxy_registry()) {
        SCOPED_TRACE(spec_entry.name);
        const auto g = gen::build_proxy(spec_entry.name);
        const auto expected = seq::count_edge_iterator(g).triangles;
        for (const Algorithm algorithm :
             {Algorithm::kDitric, Algorithm::kCetric, Algorithm::kCetric2}) {
            RunSpec spec;
            spec.algorithm = algorithm;
            spec.num_ranks = 8;
            const auto result = test::engine_count(g, spec);
            ASSERT_FALSE(result.oom) << core::algorithm_name(algorithm);
            EXPECT_EQ(result.triangles, expected) << core::algorithm_name(algorithm);
        }
    }
}

TEST(Pipeline, FileRoundTripThenDistributedCount) {
    const test::ScratchDir dir;
    const auto g = gen::build_proxy("europe");
    const auto path = dir.file("europe.metis");
    graph::write_metis(g, path);
    const auto loaded = graph::read_metis(path);

    RunSpec spec;
    spec.algorithm = Algorithm::kCetric;
    spec.num_ranks = 12;
    EXPECT_EQ(test::engine_count(loaded, spec).triangles,
              seq::count_edge_iterator(g).triangles);
}

TEST(Pipeline, ScalingSweepKeepsCountInvariant) {
    const auto g = gen::build_proxy("live-journal");
    const auto expected = seq::count_edge_iterator(g).triangles;
    for (const graph::Rank p : {1u, 2u, 4u, 8u, 16u, 32u}) {
        RunSpec spec;
        spec.algorithm = Algorithm::kDitric2;
        spec.num_ranks = p;
        EXPECT_EQ(test::engine_count(g, spec).triangles, expected) << "p=" << p;
    }
}

TEST(Pipeline, LccOnWebProxyMatchesSequential) {
    const auto g = gen::build_proxy("webbase-2001");
    RunSpec spec;
    spec.algorithm = Algorithm::kCetric;
    spec.num_ranks = 8;
    const auto dist = test::engine_lcc(g, spec);
    EXPECT_EQ(dist.delta, seq::per_vertex_triangles(g));
}

TEST(Pipeline, StatsForTable1AreComputable) {
    const auto g = gen::build_proxy("usa");
    const auto stats = graph::compute_stats(g);
    EXPECT_EQ(stats.n, g.num_vertices());
    EXPECT_EQ(stats.m, g.num_edges());
    EXPECT_GT(stats.wedges, 0u);
}

}  // namespace
}  // namespace katric
