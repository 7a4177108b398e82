#include <gtest/gtest.h>

#include <string>

#include "core/dist_lcc.hpp"
#include "gen/gnm.hpp"
#include "gen/rmat.hpp"
#include "net/rank_pool.hpp"
#include "graph/builder.hpp"
#include "seq/edge_iterator.hpp"
#include "seq/lcc.hpp"
#include "stream/stream_runner.hpp"
#include "support/engine_query.hpp"
#include "support/oracle.hpp"
#include "support/test_graphs.hpp"

namespace katric::stream {
namespace {

/// The apply superstep mutates each rank's view and credits Δ from a
/// parallel start round: with helper threads every batch still matches the
/// sequential oracle, in the vectors and in the owner-side accessors.
TEST(StreamingLccMatchesFull, HelperThreadsKeepEveryBatchExact) {
    net::RankPool helpers(3);
    const auto base = gen::generate_rmat(8, 1536, 9);
    Config config;
    config.algorithm = core::Algorithm::kCetric;
    config.num_ranks = 7;
    config.options.intersect = seq::IntersectKind::kAdaptive;
    config.options.hub_threshold = 2;
    auto views = test::dynamic_views(base, config);
    net::Simulator sim(config.num_ranks, config.network, helpers);
    const auto initial = test::engine_lcc(base, config.run_spec());
    IncrementalCounter counter(sim, views, config.options, config.stream_indirect,
                               initial.count.triangles);
    IncrementalLcc lcc(sim, views, config.options, config.stream_indirect, initial.delta);
    lcc.attach(counter);
    for (const auto& batch : make_churn_stream(base, 240, 0.45, 4321).batches_of(30)) {
        SCOPED_TRACE("batch " + std::to_string(counter.apply_batch(batch).batch_index));
        EXPECT_GE(lcc.finish_batch(), 0.0);
        const auto current = materialize_global(views);
        EXPECT_EQ(counter.triangles(), seq::count_edge_iterator(current).triangles);
        test::expect_lcc_matches(current, lcc.delta(), lcc.lcc());
        const auto oracle = seq::compute_lcc_oracle(current);
        for (const VertexId v : {VertexId{0}, current.num_vertices() / 2,
                                 current.num_vertices() - 1}) {
            EXPECT_EQ(lcc.delta_of(v), oracle.delta[v]);
            EXPECT_DOUBLE_EQ(lcc.lcc_of(v), oracle.lcc[v]);
        }
    }
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
    test::expect_lcc_matches(materialize_global(views), result.delta, result.lcc);
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

}  // namespace
}  // namespace katric::stream
