#include "stream/dynamic_graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <string>

#include "engine.hpp"
#include "gen/rgg2d.hpp"
#include "gen/rmat.hpp"
#include "graph/builder.hpp"
#include "stream/incremental.hpp"
#include "stream/stream_runner.hpp"
#include "support/test_graphs.hpp"
#include "util/assert.hpp"

namespace katric::stream {
namespace {

std::vector<DynamicDistGraph> build_views(const CsrGraph& g, Rank p) {
    return distribute_dynamic(g, Partition1D::uniform(g.num_vertices(), p));
}

/// The two ways to build every rank's dynamic view: from a preprocessed
/// Engine's static views (the StreamSession path), and per rank from the
/// global graph (distribute_dynamic, the path tests and benches replay on).
struct BuildPath {
    std::string name;
    std::function<std::vector<DynamicDistGraph>(const CsrGraph&, const Partition1D&)>
        build;
};

std::vector<BuildPath> build_paths() {
    return {
        {"engine views",
         [](const CsrGraph& g, const Partition1D& partition) {
             Config config;
             config.num_ranks = partition.num_ranks();
             const Engine engine(g, config, partition);
             std::vector<DynamicDistGraph> views;
             for (const auto& view : engine.views()) {
                 views.push_back(DynamicDistGraph::from_view(view));
             }
             return views;
         }},
        {"distribute_dynamic",
         [](const CsrGraph& g, const Partition1D& partition) {
             return distribute_dynamic(g, partition);
         }},
    };
}

struct PartitionCase {
    std::string name;
    CsrGraph graph;
    Partition1D partition;
};

std::vector<PartitionCase> partition_cases() {
    auto rmat = gen::generate_rmat(7, 512, 19);
    auto rgg = gen::generate_rgg2d(200, gen::rgg2d_radius_for_degree(200, 8.0), 3);
    auto petersen = katric::test::petersen_graph();
    std::vector<PartitionCase> cases;
    cases.push_back(
        {"rmat uniform p=4", rmat, Partition1D::uniform(rmat.num_vertices(), 4)});
    cases.push_back(
        {"rgg2d uniform p=5", rgg, Partition1D::uniform(rgg.num_vertices(), 5)});
    // p > n: some ranks own no vertex at all.
    cases.push_back({"petersen uniform p=13", petersen,
                     Partition1D::uniform(petersen.num_vertices(), 13)});
    // Injected and uneven, with an empty first rank.
    cases.push_back({"rmat injected uneven", rmat, Partition1D({0, 0, 3, 90, 128})});
    return cases;
}

TEST(DynamicDistGraph, BothBuildPathsMirrorLocalNeighborhoods) {
    for (const auto& pc : partition_cases()) {
        for (const auto& path : build_paths()) {
            SCOPED_TRACE(pc.name + " / " + path.name);
            const auto views = path.build(pc.graph, pc.partition);
            ASSERT_EQ(views.size(), pc.partition.num_ranks());
            for (const auto& view : views) {
                EXPECT_EQ(view.num_local(), pc.partition.size(view.rank()));
                EdgeId half_edges = 0;
                for (VertexId v = view.first_local();
                     v < view.first_local() + view.num_local(); ++v) {
                    const auto expected = pc.graph.neighbors(v);
                    const auto got = view.neighbors(v);
                    ASSERT_EQ(got.size(), expected.size());
                    EXPECT_TRUE(std::equal(got.begin(), got.end(), expected.begin()));
                    half_edges += expected.size();
                }
                EXPECT_EQ(view.num_local_half_edges(), half_edges);
            }
        }
    }
}

TEST(DynamicDistGraph, BothBuildPathsSeedGhostDegreesExactly) {
    for (const auto& pc : partition_cases()) {
        for (const auto& path : build_paths()) {
            SCOPED_TRACE(pc.name + " / " + path.name);
            const auto views = path.build(pc.graph, pc.partition);
            for (const auto& view : views) {
                // Exactly the remote neighbors are ghosts, each with its
                // true degree; every other remote vertex is unknown.
                for (VertexId w = 0; w < pc.graph.num_vertices(); ++w) {
                    if (view.is_local(w)) { continue; }
                    const auto nbrs = pc.graph.neighbors(w);
                    const bool ghost = std::any_of(
                        nbrs.begin(), nbrs.end(),
                        [&](VertexId x) { return view.is_local(x); });
                    const auto degree = view.ghost_degree(w);
                    ASSERT_EQ(degree.has_value(), ghost) << "vertex " << w;
                    if (ghost) { EXPECT_EQ(*degree, pc.graph.degree(w)); }
                }
            }
        }
    }
}

TEST(DynamicDistGraph, EngineStreamMatchesPerRankReplay) {
    // A StreamSession derives its views from the engine's; a replay over
    // distribute_dynamic must charge every batch exactly the same.
    const auto base = gen::generate_rmat(8, 1536, 9);
    const auto batches = make_churn_stream(base, 480, 0.4, 17).batches_of(96);
    auto config = Config::preset("streaming-lcc");
    config.num_ranks = 6;
    const Engine engine(base, config);
    const auto report = engine.stream(batches);
    auto session = engine.open_stream();

    net::Simulator sim(config.num_ranks, config.network);
    auto views = distribute_dynamic(base, engine.partition());
    IncrementalCounter counter(sim, views, config.options, config.stream_indirect,
                               session.initial().triangles);
    IncrementalLcc lcc(sim, views, config.options, config.stream_indirect,
                       session.delta());
    lcc.attach(counter);

    ASSERT_EQ(report.batches.size(), batches.size());
    for (std::size_t i = 0; i < batches.size(); ++i) {
        SCOPED_TRACE("batch " + std::to_string(i));
        const auto expected = session.ingest(batches[i]);
        auto stats = counter.apply_batch(batches[i]);
        stats.lcc_seconds = lcc.finish_batch();
        for (const auto* streamed : {&expected, &report.batches[i]}) {
            EXPECT_EQ(stats.seconds, streamed->seconds);
            EXPECT_EQ(stats.lcc_seconds, streamed->lcc_seconds);
            EXPECT_EQ(stats.words_sent, streamed->words_sent);
            EXPECT_EQ(stats.messages_sent, streamed->messages_sent);
            EXPECT_EQ(stats.delta, streamed->delta);
            EXPECT_EQ(stats.triangles, streamed->triangles);
        }
        EXPECT_EQ(lcc.delta(), session.delta());
    }
    EXPECT_EQ(lcc.delta(), report.delta);
}

TEST(DynamicDistGraph, StartsEmptyOnAnEdgelessGraph) {
    auto views = build_views(graph::build_undirected(graph::EdgeList{}, 4), 1);
    const auto& view = views[0];
    EXPECT_EQ(view.num_local(), 4u);
    EXPECT_EQ(view.num_local_half_edges(), 0u);
    EXPECT_EQ(view.degree(0), 0u);
    EXPECT_FALSE(view.has_edge(0, 1));
}

TEST(DynamicDistGraph, InsertKeepsRowsSortedAndDeduplicated) {
    auto views = build_views(graph::build_undirected(graph::EdgeList{}, 8), 2);
    auto& view = views[0];
    EXPECT_TRUE(view.insert_half_edge(0, 5));
    EXPECT_TRUE(view.insert_half_edge(0, 1));
    EXPECT_TRUE(view.insert_half_edge(0, 3));
    EXPECT_FALSE(view.insert_half_edge(0, 3));  // duplicate is a no-op
    const auto row = view.neighbors(0);
    EXPECT_TRUE(std::is_sorted(row.begin(), row.end()));
    EXPECT_EQ(view.degree(0), 3u);
    EXPECT_EQ(view.num_local_half_edges(), 3u);
    EXPECT_TRUE(view.has_edge(0, 1));
    EXPECT_TRUE(view.has_edge(0, 3));
    EXPECT_TRUE(view.has_edge(0, 5));
}

TEST(DynamicDistGraph, EraseRemovesAndReportsAbsence) {
    auto views = build_views(graph::build_undirected(graph::EdgeList{}, 8), 2);
    auto& view = views[0];
    view.insert_half_edge(0, 2);
    view.insert_half_edge(0, 4);
    EXPECT_TRUE(view.erase_half_edge(0, 2));
    EXPECT_FALSE(view.erase_half_edge(0, 2));  // already gone
    EXPECT_FALSE(view.has_edge(0, 2));
    EXPECT_EQ(view.num_local_half_edges(), 1u);
}

TEST(DynamicDistGraph, RoundTripInsertEraseRestoresRow) {
    auto views = build_views(katric::test::complete_graph(8), 1);
    auto& view = views[0];
    const auto row = view.neighbors(3);
    const std::vector<VertexId> before(row.begin(), row.end());
    const EdgeId half_edges = view.num_local_half_edges();
    ASSERT_TRUE(view.erase_half_edge(3, 5));
    EXPECT_EQ(view.num_local_half_edges(), half_edges - 1);
    ASSERT_TRUE(view.insert_half_edge(3, 5));
    const std::vector<VertexId> after(view.neighbors(3).begin(), view.neighbors(3).end());
    EXPECT_EQ(before, after);
    EXPECT_EQ(view.num_local_half_edges(), half_edges);
}

TEST(DynamicDistGraph, InsertEraseHalfEdgesAreIdempotentPerDirection) {
    const auto g = katric::test::petersen_graph();
    auto views = build_views(g, 2);
    auto& view = views[0];
    const VertexId u = view.first_local();
    // Petersen vertex 0 is adjacent to 1, 4, 5.
    EXPECT_TRUE(view.has_edge(u, 1));
    EXPECT_FALSE(view.insert_half_edge(u, 1));  // already present
    EXPECT_TRUE(view.insert_half_edge(u, 3));
    EXPECT_TRUE(view.has_edge(u, 3));
    EXPECT_TRUE(view.erase_half_edge(u, 3));
    EXPECT_FALSE(view.erase_half_edge(u, 3));  // already absent
    EXPECT_EQ(view.degree(u), 3u);
}

TEST(DynamicDistGraph, NeighborRanksDeduplicatesAndExcludesSelf) {
    const auto g = katric::test::complete_graph(12);
    auto views = build_views(g, 4);  // 3 vertices per rank
    const auto& view = views[1];
    std::vector<Rank> ranks;
    view.neighbor_ranks(view.first_local(), ranks);
    // K12: every other rank owns neighbors; self excluded.
    ASSERT_EQ(ranks.size(), 3u);
    EXPECT_TRUE(std::find(ranks.begin(), ranks.end(), 1u) == ranks.end());
}

TEST(DynamicDistGraph, NeighborRanksMatchAnOwnerLookupReference) {
    // The cursor against rank_of plus first-seen dedupe, on every row of
    // every rank (first and last included), on partitions whose rows cross
    // ranks that own no vertex: repeated boundaries in the middle and at
    // both ends, and p > n.
    auto cases = partition_cases();
    const auto k12 = katric::test::complete_graph(12);
    cases.push_back({"K12 empty ranks between every pair", k12,
                     Partition1D({0, 0, 4, 4, 4, 8, 8, 12, 12})});
    const auto rmat = gen::generate_rmat(7, 512, 23);
    cases.push_back({"rmat repeated boundaries", rmat,
                     Partition1D({0, 0, 3, 3, 3, 90, 128, 128})});
    cases.push_back({"K12 uniform p=20", k12, Partition1D::uniform(12, 20)});
    for (const auto& pc : cases) {
        SCOPED_TRACE(pc.name);
        const auto views = distribute_dynamic(pc.graph, pc.partition);
        std::vector<Rank> got{99, 98, 97};  // a reused buffer is cleared first
        for (const auto& view : views) {
            for (VertexId v = view.first_local(); v < view.first_local() + view.num_local();
                 ++v) {
                std::vector<Rank> expected;
                for (const VertexId w : view.neighbors(v)) {
                    if (view.is_local(w)) { continue; }
                    const Rank owner = pc.partition.rank_of(w);
                    if (std::find(expected.begin(), expected.end(), owner)
                        == expected.end()) {
                        expected.push_back(owner);
                    }
                }
                view.neighbor_ranks(v, got);
                ASSERT_EQ(got, expected) << "rank " << view.rank() << ", vertex " << v;
            }
        }
    }
}

TEST(DynamicDistGraph, GhostDegreeStaysUnknownUntilTheFirstNote) {
    const auto g = katric::test::path_graph(40);
    auto views = build_views(g, 3);  // rank 0 owns 0..13
    auto& view = views[0];
    const VertexId late = 39;  // becomes a ghost of rank 0 mid-stream
    ASSERT_FALSE(view.ghost_degree(late).has_value());
    ASSERT_TRUE(view.insert_half_edge(0, late));
    EXPECT_FALSE(view.ghost_degree(late).has_value());
    // Notes for every other remote vertex, enough to regrow the table,
    // leave it unknown.
    const VertexId remote = view.first_local() + view.num_local();
    for (VertexId w = remote; w < late; ++w) { view.note_ghost_degree(w, w + 100); }
    EXPECT_FALSE(view.ghost_degree(late).has_value());
    for (VertexId w = remote; w < late; ++w) { EXPECT_EQ(view.ghost_degree(w), w + 100); }
    view.note_ghost_degree(late, 2);
    EXPECT_EQ(view.ghost_degree(late), 2u);

    // Through the counter: owner(5) notes 5's new degree to rank 0 in the
    // batch that makes 5 a ghost there; 4, never linked to rank 0, stays
    // unknown there.
    auto fresh = build_views(katric::test::path_graph(6), 3);  // {0,1} {2,3} {4,5}
    net::Simulator sim(3, net::NetworkConfig{});
    IncrementalCounter counter(sim, fresh, core::AlgorithmOptions{}, false, 0);
    EXPECT_FALSE(fresh[0].ghost_degree(5).has_value());
    EdgeBatch batch;
    batch.events.push_back({0.0, 0, 5, EventKind::kInsert});
    ASSERT_TRUE(counter.apply_batch(batch).error.ok());
    EXPECT_EQ(fresh[0].ghost_degree(5), 2u);
    EXPECT_FALSE(fresh[0].ghost_degree(4).has_value());
}

TEST(DynamicDistGraph, GhostDegreeNoteRejectsIdsOutsideTheUniverseOrLocal) {
    // A degree note's words come off the wire: a vertex n, 2^64 − 1 or
    // local must throw, and leave every stored degree as it was.
    const auto g = katric::test::complete_graph(6);
    auto views = build_views(g, 2);
    auto& view = views[0];
    const VertexId n = g.num_vertices();
    for (const VertexId bad : {n, n + 1, std::numeric_limits<VertexId>::max(),
                               view.first_local(), view.first_local() + 1}) {
        SCOPED_TRACE(bad);
        EXPECT_THROW(view.note_ghost_degree(bad, 1), katric::assertion_error);
        EXPECT_FALSE(view.ghost_degree(bad).has_value());
    }
    // So is the one degree that reads as "never noted".
    EXPECT_THROW(view.note_ghost_degree(4, std::numeric_limits<Degree>::max()),
                 katric::assertion_error);
    for (VertexId w = 3; w < n; ++w) { EXPECT_EQ(view.ghost_degree(w), 5u); }
}

TEST(DynamicDistGraph, GhostDegreeNotesOverride) {
    const auto g = katric::test::complete_graph(6);
    auto views = build_views(g, 2);
    auto& view = views[0];
    const VertexId ghost = 5;
    ASSERT_TRUE(view.ghost_degree(ghost).has_value());
    view.note_ghost_degree(ghost, 17);
    EXPECT_EQ(view.ghost_degree(ghost), 17u);
    EXPECT_THROW(view.note_ghost_degree(view.first_local(), 1), katric::assertion_error);
}

TEST(MaterializeGlobal, RoundTripsTheInitialGraph) {
    for (const auto& fc : katric::test::family_cases()) {
        SCOPED_TRACE(fc.name);
        auto views = build_views(fc.graph, 6);
        const auto rebuilt = materialize_global(views);
        ASSERT_EQ(rebuilt.num_vertices(), fc.graph.num_vertices());
        ASSERT_EQ(rebuilt.num_edges(), fc.graph.num_edges());
        EXPECT_EQ(rebuilt.offsets(), fc.graph.offsets());
        EXPECT_EQ(rebuilt.targets(), fc.graph.targets());
    }
}

TEST(MaterializeGlobal, ReflectsMutations) {
    const auto g = katric::test::path_graph(6);  // 0-1-2-3-4-5
    auto views = build_views(g, 3);
    // Close the triangle {0,1,2}: edge {0,2} touches owner(0)=rank 0 twice.
    ASSERT_TRUE(views[0].insert_half_edge(0, 2));
    ASSERT_TRUE(views[1].insert_half_edge(2, 0));
    // Remove {3,4}: endpoints live on ranks 1 and 2.
    ASSERT_TRUE(views[1].erase_half_edge(3, 4));
    ASSERT_TRUE(views[2].erase_half_edge(4, 3));
    const auto rebuilt = materialize_global(views);
    rebuilt.validate();
    EXPECT_TRUE(rebuilt.has_edge(0, 2));
    EXPECT_FALSE(rebuilt.has_edge(3, 4));
    EXPECT_EQ(rebuilt.num_edges(), 5u);
}

}  // namespace
}  // namespace katric::stream
