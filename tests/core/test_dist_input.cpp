#include "core/dist_input.hpp"

#include <gtest/gtest.h>

#include "util/assert.hpp"

#include "core/runner.hpp"
#include "gen/gnm.hpp"
#include "gen/rmat.hpp"
#include "graph/builder.hpp"
#include "seq/edge_iterator.hpp"
#include "support/oneshot.hpp"
#include "util/bits.hpp"

namespace katric::core {
namespace {

/// Global reference graph from the same chunk seeds the pipeline uses.
graph::CsrGraph reference_graph(const DistInputSpec& spec, Rank p) {
    graph::EdgeList all;
    for (Rank chunk = 0; chunk < p; ++chunk) {
        if (spec.family == SyntheticFamily::kGnm) {
            all.append(gen::generate_gnm_chunk(spec.n, spec.m, spec.seed, chunk, p));
        } else {
            all.append(gen::generate_rmat_chunk(katric::ceil_log2(spec.n), spec.m,
                                                spec.seed, chunk, p));
        }
    }
    const graph::VertexId n = spec.family == SyntheticFamily::kRmat
                                  ? graph::VertexId{1} << katric::ceil_log2(spec.n)
                                  : spec.n;
    return graph::build_undirected(std::move(all), n);
}

class DistInputTest
    : public ::testing::TestWithParam<std::tuple<SyntheticFamily, Rank>> {};

TEST_P(DistInputTest, ViewsMatchGlobalDistribution) {
    const auto [family, p] = GetParam();
    DistInputSpec spec;
    spec.family = family;
    spec.n = 512;
    spec.m = 4096;
    spec.seed = 11;
    const auto global = reference_graph(spec, p);
    const auto partition = graph::Partition1D::uniform(global.num_vertices(), p);

    net::Simulator sim(p, net::NetworkConfig{});
    auto piped = generate_distributed(sim, partition, spec);
    const auto expected = graph::distribute(global, partition);

    ASSERT_EQ(piped.views.size(), expected.size());
    for (Rank r = 0; r < p; ++r) {
        SCOPED_TRACE(testing::Message() << "rank " << r);
        const auto& a = piped.views[r];
        const auto& b = expected[r];
        ASSERT_EQ(a.num_local(), b.num_local());
        EXPECT_EQ(a.num_cut_edges(), b.num_cut_edges());
        EXPECT_EQ(a.ghost_ids(), b.ghost_ids());
        for (graph::VertexId v = a.first_local(); v < a.first_local() + a.num_local();
             ++v) {
            const auto na = a.neighbors(v);
            const auto nb = b.neighbors(v);
            ASSERT_EQ(na.size(), nb.size()) << "vertex " << v;
            EXPECT_TRUE(std::equal(na.begin(), na.end(), nb.begin()));
        }
    }
    EXPECT_GT(piped.input_time, 0.0);
    if (p > 1) { EXPECT_GT(piped.exchanged_words, 0u); }
}

TEST_P(DistInputTest, EndToEndCountWithoutGlobalGraph) {
    const auto [family, p] = GetParam();
    DistInputSpec spec;
    spec.family = family;
    spec.n = 1024;
    spec.m = 8192;
    spec.seed = 23;
    const auto global = reference_graph(spec, p);
    const auto expected = seq::count_edge_iterator(global).triangles;

    const auto partition = graph::Partition1D::uniform(global.num_vertices(), p);
    net::Simulator sim(p, net::NetworkConfig{});
    auto piped = generate_distributed(sim, partition, spec);

    RunSpec run;
    run.algorithm = Algorithm::kCetric;
    run.num_ranks = p;
    test::preprocess_in_run(sim, piped.views, run.algorithm, run.options);
    EXPECT_EQ(dispatch_algorithm(sim, piped.views, run).triangles, expected);
}

INSTANTIATE_TEST_SUITE_P(FamiliesTimesRanks, DistInputTest,
                         ::testing::Combine(::testing::Values(SyntheticFamily::kGnm,
                                                              SyntheticFamily::kRmat),
                                            ::testing::Values<Rank>(1, 4, 7, 16)));

TEST(DistInput, FromLocalEdgesRejectsForeignEdges) {
    const auto partition = graph::Partition1D::uniform(10, 2);
    graph::EdgeList edges;
    edges.add(7, 9);  // both endpoints on rank 1
    EXPECT_THROW(graph::DistGraph::from_local_edges(partition, 0, std::move(edges)),
                 katric::assertion_error);
}

TEST(DistInput, FromLocalEdgesDedupsAndSelfLoopStrips) {
    const auto partition = graph::Partition1D::uniform(8, 2);
    graph::EdgeList edges;
    edges.add(0, 1);
    edges.add(1, 0);
    edges.add(0, 0);
    edges.add(1, 6);  // cut edge
    const auto view = graph::DistGraph::from_local_edges(partition, 0, std::move(edges));
    EXPECT_EQ(view.degree(0), 1u);
    EXPECT_EQ(view.degree(1), 2u);
    EXPECT_EQ(view.num_ghosts(), 1u);
    EXPECT_EQ(view.ghost_id(0), 6u);
    EXPECT_EQ(view.num_cut_edges(), 1u);
}

}  // namespace
}  // namespace katric::core
