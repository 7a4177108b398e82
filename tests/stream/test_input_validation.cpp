// Input validation at the trust boundaries: malformed stream batches and
// out-of-universe edge lists (ID 2^64 − 1 included) are rejected with typed
// errors (core::RunError::kInvalidInput) instead of tripping internal
// assertions — and rejection is atomic: nothing was mutated, and the
// session keeps serving well-formed input afterwards.

#include <gtest/gtest.h>

#include <limits>
#include <optional>
#include <string>

#include "engine.hpp"
#include "graph/builder.hpp"
#include "stream/edge_stream.hpp"
#include "support/test_graphs.hpp"
#include "util/assert.hpp"

namespace katric::stream {
namespace {

EdgeBatch insert_batch(std::initializer_list<EdgeEvent> events) {
    EdgeBatch batch;
    batch.events = events;
    if (!batch.events.empty()) {
        batch.begin_time = batch.events.front().time;
        batch.end_time = batch.events.back().time;
    }
    return batch;
}

Config session_config() {
    Config config;
    config.num_ranks = 4;
    return config;
}

/// Keeps the engine alive alongside the session it spawned.
struct SessionFixture {
    graph::CsrGraph graph = test::complete_graph(12);  // C(12,3) = 220
    Engine engine{graph, session_config()};
    StreamSession session = engine.open_stream();
};

TEST(StreamInputValidation, OutOfUniverseEndpointIsRejectedAtomically) {
    SessionFixture fx;
    auto& session = fx.session;
    const auto before = session.triangles();
    ASSERT_EQ(before, 220u);

    const auto stats = session.ingest(insert_batch({
        {0.0, 0, 1, EventKind::kDelete},
        {1.0, 3, 999, EventKind::kInsert},  // 999 ∉ [0, 12)
    }));

    EXPECT_EQ(stats.error, core::RunError::kInvalidInput);
    EXPECT_NE(stats.error.message.find("999"), std::string::npos);
    // Atomic rejection: the in-range delete in the same batch must NOT have
    // been applied, no superstep ran, and the count is the pre-batch value.
    EXPECT_EQ(stats.net_inserts, 0u);
    EXPECT_EQ(stats.net_deletes, 0u);
    EXPECT_EQ(stats.delta, 0);
    EXPECT_EQ(stats.messages_sent, 0u);
    EXPECT_EQ(stats.triangles, before);
    EXPECT_EQ(session.triangles(), before);
}

TEST(StreamInputValidation, UnorderedEventsAreRejected) {
    SessionFixture fx;
    auto& session = fx.session;
    const auto before = session.triangles();

    const auto stats = session.ingest(insert_batch({
        {5.0, 0, 1, EventKind::kDelete},
        {2.0, 1, 2, EventKind::kDelete},  // travels back in time
    }));

    EXPECT_EQ(stats.error, core::RunError::kInvalidInput);
    EXPECT_NE(stats.error.message.find("time-ordered"), std::string::npos);
    EXPECT_EQ(session.triangles(), before);
}

TEST(StreamInputValidation, NonFiniteTimesAreRejectedAtomically) {
    // NaN compares false against every time: an order check alone lets it
    // through to the fold.
    for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity()}) {
        SCOPED_TRACE(bad);
        SessionFixture fx;
        const auto stats = fx.session.ingest(insert_batch({
            {0.0, 0, 1, EventKind::kDelete},
            {bad, 1, 2, EventKind::kDelete},
        }));
        EXPECT_EQ(stats.error, core::RunError::kInvalidInput);
        EXPECT_NE(stats.error.message.find("non-finite"), std::string::npos);
        EXPECT_EQ(stats.net_deletes + stats.messages_sent, 0u);
        EXPECT_EQ(fx.session.triangles(), 220u);
    }
}

TEST(StreamInputValidation, SessionRecoversAfterARejectedBatch) {
    SessionFixture fx;
    auto& session = fx.session;

    const auto rejected = session.ingest(insert_batch({
        {0.0, 99, 0, EventKind::kInsert},
    }));
    ASSERT_FALSE(rejected.error.ok());

    // The very next well-formed batch applies normally: deleting edge {0,1}
    // from K12 removes the 10 triangles through it.
    const auto applied = session.ingest(insert_batch({
        {1.0, 0, 1, EventKind::kDelete},
    }));
    EXPECT_TRUE(applied.error.ok());
    EXPECT_EQ(applied.net_deletes, 1u);
    EXPECT_EQ(applied.delta, -10);
    EXPECT_EQ(session.triangles(), 210u);

    // Rejected batches are recorded (diagnosable) but consume no index of
    // their own — the applied batch follows the initial numbering.
    ASSERT_EQ(session.batches().size(), 2u);
    EXPECT_FALSE(session.batches()[0].error.ok());
    EXPECT_TRUE(session.batches()[1].error.ok());
}

TEST(StreamInputValidation, SelfLoopsRemainValidNoOps) {
    // Self-loops are requests the streaming model defines as no-ops, not
    // validation failures — the documented drop semantics stay intact.
    SessionFixture fx;
    auto& session = fx.session;
    const auto stats = session.ingest(insert_batch({
        {0.0, 4, 4, EventKind::kInsert},
    }));
    EXPECT_TRUE(stats.error.ok());
    EXPECT_EQ(stats.net_inserts, 0u);
    EXPECT_EQ(session.triangles(), 220u);
}

TEST(BuilderInputValidation, TryBuildRejectsEndpointsOutsideTheUniverse) {
    graph::EdgeList edges;
    edges.add(0, 1);
    edges.add(1, 7);  // 7 ∉ [0, 4)

    Error error;
    const auto built = graph::try_build_undirected(edges, 4, &error);
    EXPECT_EQ(built, std::nullopt);
    EXPECT_EQ(error, core::RunError::kInvalidInput);
    EXPECT_NE(error.message.find("7"), std::string::npos);
}

TEST(BuilderInputValidation, VertexIdTwoToThe64MinusOneIsRejectedNotWrapped) {
    // Its + 1 wraps to 0, which would make the inferred universe empty.
    graph::EdgeList edges;
    edges.add(0, graph::kInvalidVertex);
    for (const graph::VertexId n : {graph::VertexId{0}, graph::VertexId{4}}) {
        Error error;
        EXPECT_EQ(graph::try_build_undirected(edges, n, &error), std::nullopt);
        EXPECT_EQ(error, core::RunError::kInvalidInput);
        EXPECT_NE(error.message.find("18446744073709551615"), std::string::npos);
        EXPECT_THROW((void)graph::build_undirected(edges, n), assertion_error);
    }
}

TEST(BuilderInputValidation, TryBuildAcceptsValidInputAndClearsTheError) {
    graph::EdgeList edges;
    edges.add(0, 1);
    edges.add(1, 2);
    edges.add(0, 2);

    Error error = make_error(core::RunError::kInvalidInput, "stale");
    const auto built = graph::try_build_undirected(edges, 3, &error);
    ASSERT_TRUE(built.has_value());
    EXPECT_TRUE(error.ok());
    EXPECT_EQ(built->num_vertices(), 3u);
    EXPECT_EQ(built->num_edges(), 3u);

    // Inferred universe (num_vertices = 0) always validates.
    const auto inferred = graph::try_build_undirected(edges, 0, nullptr);
    ASSERT_TRUE(inferred.has_value());
    EXPECT_EQ(inferred->num_vertices(), 3u);
}

}  // namespace
}  // namespace katric::stream
