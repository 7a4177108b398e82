#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "core/dist_lcc.hpp"
#include "gen/gnm.hpp"
#include "gen/rgg2d.hpp"
#include "gen/rmat.hpp"
#include "net/rank_pool.hpp"
#include "graph/builder.hpp"
#include "seq/lcc.hpp"
#include "stream/stream_runner.hpp"
#include "support/engine_query.hpp"
#include "support/test_graphs.hpp"
#include "util/assert.hpp"

namespace katric::stream {
namespace {

graph::CsrGraph make_base(const std::string& family) {
    if (family == "gnm") { return gen::generate_gnm(300, 1800, 42); }
    if (family == "rmat") { return gen::generate_rmat(8, 1536, 9); }
    if (family == "rgg2d") {
        return gen::generate_rgg2d(300, gen::rgg2d_radius_for_degree(300, 10.0), 7);
    }
    KATRIC_THROW("unknown family " << family);
}

/// Drives an IncrementalCounter with an attached IncrementalLcc over
/// `batches` and checks Δ and LCC against the full distributed recompute
/// (and the sequential oracle) after every batch.
void expect_lcc_tracks_recompute(const graph::CsrGraph& base,
                                 const std::vector<EdgeBatch>& batches,
                                 const Config& config,
                                 net::RankPool& pool = net::RankPool::shared()) {
    auto views = test::dynamic_views(base, config);
    net::Simulator sim(config.num_ranks, config.network, pool);
    const auto initial = test::engine_lcc(base, config.run_spec());
    ASSERT_FALSE(initial.count.oom);
    IncrementalCounter counter(sim, views, config.options, config.stream_indirect,
                               initial.count.triangles);
    IncrementalLcc lcc(sim, views, config.options, config.stream_indirect, initial.delta);
    lcc.attach(counter);

    for (const auto& batch : batches) {
        const auto stats = counter.apply_batch(batch);
        const double flush_seconds = lcc.finish_batch();
        EXPECT_GE(flush_seconds, 0.0);

        const auto current = materialize_global(views);
        const auto full = test::engine_lcc(current, config.run_spec());
        ASSERT_FALSE(full.count.oom);
        ASSERT_EQ(counter.triangles(), full.count.triangles)
            << "batch " << stats.batch_index;
        const auto streamed_delta = lcc.delta();
        const auto streamed_lcc = lcc.lcc();
        ASSERT_EQ(streamed_delta, full.delta) << "batch " << stats.batch_index;
        ASSERT_EQ(streamed_lcc.size(), full.lcc.size());
        for (VertexId v = 0; v < streamed_lcc.size(); ++v) {
            ASSERT_DOUBLE_EQ(streamed_lcc[v], full.lcc[v])
                << "batch " << stats.batch_index << ", vertex " << v;
        }
        // And against the single-machine oracle, closing the loop between
        // the distributed and sequential definitions.
        const auto oracle = seq::compute_lcc_oracle(current);
        ASSERT_EQ(streamed_delta, oracle.delta) << "batch " << stats.batch_index;
        for (VertexId v = 0; v < streamed_lcc.size(); ++v) {
            ASSERT_DOUBLE_EQ(streamed_lcc[v], oracle.lcc[v])
                << "batch " << stats.batch_index << ", vertex " << v;
        }
        // Spot-check the owner-side single-vertex accessors.
        for (const VertexId v : {VertexId{0}, current.num_vertices() / 2,
                                 current.num_vertices() - 1}) {
            EXPECT_EQ(lcc.delta_of(v), full.delta[v]);
            EXPECT_DOUBLE_EQ(lcc.lcc_of(v), full.lcc[v]);
        }
    }
}

/// The tentpole property: after every batch of a randomized insert/delete
/// stream, the incrementally maintained per-vertex Δ and LCC vectors equal
/// a full compute_distributed_lcc of the materialized graph — under the
/// merge kernel and under adaptive dispatch (hub bitmaps + collect paths).
using PropertyParam = std::tuple<std::string /*family*/, core::PartitionStrategy, Rank,
                                 seq::IntersectKind>;

class StreamingLccMatchesFullTest : public ::testing::TestWithParam<PropertyParam> {};

TEST_P(StreamingLccMatchesFullTest, EveryBatchAgreesWithDistributedLcc) {
    const auto [family, partition, p, kind] = GetParam();
    const auto base = make_base(family);

    Config config;
    config.algorithm = core::Algorithm::kCetric;
    config.num_ranks = p;
    config.partition = partition;
    config.options.intersect = kind;
    if (core::uses_hub_bitmaps(kind)) { config.options.hub_threshold = 2; }

    const auto stream = make_churn_stream(base, 240, 0.45, 4321);
    expect_lcc_tracks_recompute(base, stream.batches_of(30), config);
}

std::string property_name(const ::testing::TestParamInfo<PropertyParam>& info) {
    const auto [family, partition, p, kind] = info.param;
    const std::string strategy =
        partition == core::PartitionStrategy::kUniformVertices ? "uniform" : "balanced";
    return family + "_" + strategy + "_p" + std::to_string(p) + "_"
           + seq::intersect_kind_name(kind);
}

INSTANTIATE_TEST_SUITE_P(
    GeneratorsPartitionsRanks, StreamingLccMatchesFullTest,
    ::testing::Combine(::testing::Values("gnm", "rmat", "rgg2d"),
                       ::testing::Values(core::PartitionStrategy::kUniformVertices,
                                         core::PartitionStrategy::kBalancedEdges),
                       ::testing::Values<Rank>(1, 4, 7),
                       ::testing::Values(seq::IntersectKind::kMerge,
                                         seq::IntersectKind::kAdaptive)),
    property_name);

/// The apply superstep mutates each rank's view and credits Δ from a
/// parallel start round: with helper threads every batch still matches the
/// full recompute and the oracle.
TEST(StreamingLccMatchesFull, HelperThreadsKeepEveryBatchExact) {
    net::RankPool helpers(3);
    const auto base = make_base("rmat");
    Config config;
    config.algorithm = core::Algorithm::kCetric;
    config.num_ranks = 7;
    config.options.intersect = seq::IntersectKind::kAdaptive;
    config.options.hub_threshold = 2;
    const auto stream = make_churn_stream(base, 240, 0.45, 4321);
    expect_lcc_tracks_recompute(base, stream.batches_of(30), config, helpers);
}

TEST(StreamingLccEdgeCases, IsolatedAndDegreeOneVerticesReportZero) {
    // Vertices 0–2 form a triangle; 3 is a pendant off 0; 4 and 5 are
    // isolated. LCC is defined (nonzero) only on the triangle.
    const auto base = graph::build_undirected(
        graph::EdgeList{{graph::Edge{0, 1}, graph::Edge{1, 2}, graph::Edge{0, 2},
                         graph::Edge{0, 3}}},
        6);
    Config config;
    config.algorithm = core::Algorithm::kCetric;
    config.num_ranks = 3;
    config.partition = core::PartitionStrategy::kUniformVertices;

    auto views = test::dynamic_views(base, config);
    net::Simulator sim(config.num_ranks, config.network);
    const auto initial = test::engine_lcc(base, config.run_spec());
    IncrementalCounter counter(sim, views, config.options, config.stream_indirect,
                               initial.count.triangles);
    IncrementalLcc lcc(sim, views, config.options, config.stream_indirect, initial.delta);
    lcc.attach(counter);

    // Churn an edge elsewhere so the batch is not a global no-op.
    EdgeBatch batch;
    batch.events.push_back({0.0, 4, 5, EventKind::kInsert});
    counter.apply_batch(batch);
    lcc.finish_batch();

    EXPECT_EQ(lcc.delta_of(3), 0u);
    EXPECT_DOUBLE_EQ(lcc.lcc_of(3), 0.0);  // degree 1: undefined → 0
    for (const VertexId isolated : {VertexId{4}, VertexId{5}}) {
        // 4 and 5 now have degree 1 (the inserted edge) and no triangles.
        EXPECT_EQ(lcc.delta_of(isolated), 0u);
        EXPECT_DOUBLE_EQ(lcc.lcc_of(isolated), 0.0);
    }
    EXPECT_DOUBLE_EQ(lcc.lcc_of(1), 1.0);  // degree-2 triangle corner
    EXPECT_DOUBLE_EQ(lcc.lcc_of(2), 1.0);
    // Vertex 0 has degree 3 (triangle + pendant): LCC = 2·1/(3·2) = 1/3.
    EXPECT_DOUBLE_EQ(lcc.lcc_of(0), 1.0 / 3.0);
}

TEST(StreamingLccEdgeCases, DegreeDroppingBelowTwoZerosTheCoefficient) {
    const auto base = katric::test::triangle_graph();  // K3 on vertices 0,1,2
    Config config;
    config.algorithm = core::Algorithm::kCetric;
    config.num_ranks = 2;
    config.partition = core::PartitionStrategy::kUniformVertices;

    auto views = test::dynamic_views(base, config);
    net::Simulator sim(config.num_ranks, config.network);
    const auto initial = test::engine_lcc(base, config.run_spec());
    IncrementalCounter counter(sim, views, config.options, config.stream_indirect,
                               initial.count.triangles);
    IncrementalLcc lcc(sim, views, config.options, config.stream_indirect, initial.delta);
    lcc.attach(counter);
    EXPECT_DOUBLE_EQ(lcc.lcc_of(2), 1.0);

    // Deleting {1,2} opens the triangle: vertex 2 keeps degree 1 and must
    // drop to LCC 0 because the denominator d(d−1) is no longer defined.
    EdgeBatch batch;
    batch.events.push_back({0.0, 1, 2, EventKind::kDelete});
    counter.apply_batch(batch);
    lcc.finish_batch();

    EXPECT_EQ(counter.triangles(), 0u);
    for (const VertexId v : {VertexId{0}, VertexId{1}, VertexId{2}}) {
        EXPECT_EQ(lcc.delta_of(v), 0u) << "vertex " << v;
        EXPECT_DOUBLE_EQ(lcc.lcc_of(v), 0.0) << "vertex " << v;
    }
}

TEST(StreamingLccEdgeCases, DeleteThenReinsertWithinOneBatchIsInvisible) {
    const auto base = katric::test::bowtie_graph();  // two triangles sharing vertex 2
    Config config;
    config.algorithm = core::Algorithm::kCetric;
    config.num_ranks = 2;
    auto views = test::dynamic_views(base, config);
    net::Simulator sim(config.num_ranks, config.network);
    const auto initial = test::engine_lcc(base, config.run_spec());
    IncrementalCounter counter(sim, views, config.options, config.stream_indirect,
                               initial.count.triangles);
    IncrementalLcc lcc(sim, views, config.options, config.stream_indirect, initial.delta);
    lcc.attach(counter);

    // {0,1} leaves and returns within the batch — the fold must erase the
    // pair entirely, leaving Δ and LCC bit-identical to the start state.
    EdgeBatch batch;
    batch.events.push_back({0.0, 0, 1, EventKind::kDelete});
    batch.events.push_back({0.1, 0, 1, EventKind::kInsert});
    const auto stats = counter.apply_batch(batch);
    lcc.finish_batch();

    EXPECT_EQ(stats.net_inserts, 0u);
    EXPECT_EQ(stats.net_deletes, 0u);
    EXPECT_EQ(lcc.delta(), initial.delta);
    const auto streamed = lcc.lcc();
    ASSERT_EQ(streamed.size(), initial.lcc.size());
    for (VertexId v = 0; v < streamed.size(); ++v) {
        EXPECT_DOUBLE_EQ(streamed[v], initial.lcc[v]) << "vertex " << v;
    }
}

TEST(StreamingLccEdgeCases, WholeTriangleArrivingAndLeavingInOneBatch) {
    // All three edges of a triangle inserted together: every find runs with
    // multiplicity k ∈ {2,3}, the per-vertex 6/k attribution path.
    const auto base = graph::build_undirected(graph::EdgeList{}, 6);
    Config config;
    config.num_ranks = 3;
    config.partition = core::PartitionStrategy::kUniformVertices;
    auto views = test::dynamic_views(base, config);
    net::Simulator sim(config.num_ranks, config.network);
    IncrementalCounter counter(sim, views, config.options, config.stream_indirect, 0);
    IncrementalLcc lcc(sim, views, config.options, config.stream_indirect,
                       std::vector<std::uint64_t>(6, 0));
    lcc.attach(counter);

    EdgeBatch arrive;
    arrive.events.push_back({0.0, 0, 2, EventKind::kInsert});
    arrive.events.push_back({0.1, 2, 5, EventKind::kInsert});
    arrive.events.push_back({0.2, 0, 5, EventKind::kInsert});
    counter.apply_batch(arrive);
    lcc.finish_batch();
    for (const VertexId v : {VertexId{0}, VertexId{2}, VertexId{5}}) {
        EXPECT_EQ(lcc.delta_of(v), 1u) << "vertex " << v;
        EXPECT_DOUBLE_EQ(lcc.lcc_of(v), 1.0) << "vertex " << v;
    }
    EXPECT_EQ(lcc.delta_of(1), 0u);

    EdgeBatch leave;
    leave.events.push_back({1.0, 0, 2, EventKind::kDelete});
    leave.events.push_back({1.1, 2, 5, EventKind::kDelete});
    leave.events.push_back({1.2, 0, 5, EventKind::kDelete});
    counter.apply_batch(leave);
    lcc.finish_batch();
    for (VertexId v = 0; v < 6; ++v) {
        EXPECT_EQ(lcc.delta_of(v), 0u) << "vertex " << v;
        EXPECT_DOUBLE_EQ(lcc.lcc_of(v), 0.0) << "vertex " << v;
    }
}

TEST(CountTrianglesStreamingLcc, RunnerMaintainsLccAndReportsFlushTimes) {
    const auto base = gen::generate_gnm(256, 1536, 3);
    Config config;
    config.algorithm = core::Algorithm::kCetric;
    config.num_ranks = 6;
    config.maintain_lcc = true;
    const auto stream = make_churn_stream(base, 300, 0.4, 55);
    const auto batches = stream.batches_of(50);

    const auto result = test::engine_stream(base, batches, config);
    ASSERT_EQ(result.batches.size(), batches.size());
    for (const auto& stats : result.batches) { EXPECT_GE(stats.lcc_seconds, 0.0); }

    // Final state must equal the oracle of the final graph.
    auto views = test::dynamic_views(base, config);
    net::Simulator sim(config.num_ranks, config.network);
    IncrementalCounter counter(sim, views, config.options, config.stream_indirect,
                               result.initial.triangles);
    for (const auto& batch : batches) { counter.apply_batch(batch); }
    const auto oracle = seq::compute_lcc_oracle(materialize_global(views));
    EXPECT_EQ(result.delta, oracle.delta);
    ASSERT_EQ(result.lcc.size(), oracle.lcc.size());
    for (VertexId v = 0; v < result.lcc.size(); ++v) {
        EXPECT_DOUBLE_EQ(result.lcc[v], oracle.lcc[v]) << "vertex " << v;
    }
}

TEST(CountTrianglesStreamingLcc, WithoutMaintenanceVectorsStayEmpty) {
    const auto base = katric::test::petersen_graph();
    Config config;
    config.algorithm = core::Algorithm::kCetric;
    config.num_ranks = 2;
    const auto stream = make_churn_stream(base, 40, 0.3, 8);
    const auto result = test::engine_stream(base, stream.batches_of(10), config);
    EXPECT_TRUE(result.delta.empty());
    EXPECT_TRUE(result.lcc.empty());
    for (const auto& stats : result.batches) { EXPECT_EQ(stats.lcc_seconds, 0.0); }
}

TEST(StreamingLccEdgeCases, IndirectRoutingFlushStaysExact) {
    const auto base = gen::generate_rgg2d(256, gen::rgg2d_radius_for_degree(256, 9.0), 21);
    Config config;
    config.algorithm = core::Algorithm::kCetric;
    config.num_ranks = 9;  // 3×3 grid
    config.stream_indirect = true;
    const auto stream = make_churn_stream(base, 120, 0.45, 77);
    expect_lcc_tracks_recompute(base, stream.batches_of(30), config);
}

}  // namespace
}  // namespace katric::stream
