#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/runner.hpp"
#include "gen/gnm.hpp"
#include "seq/adaptive_intersect.hpp"
#include "seq/edge_iterator.hpp"
#include "stream/stream_runner.hpp"
#include "support/engine_query.hpp"
#include "support/test_graphs.hpp"
#include "util/assert.hpp"
#include "util/hash.hpp"

namespace katric::stream {
namespace {

/// End-to-end runner checks: final count, per-batch bookkeeping, observer.
TEST(CountTrianglesStreaming, RunnerMatchesFinalRecountAndReportsBatches) {
    const auto base = gen::generate_gnm(256, 1536, 3);
    Config config;
    config.algorithm = core::Algorithm::kCetric;
    config.num_ranks = 6;
    const auto stream = make_churn_stream(base, 300, 0.4, 55);
    const auto batches = stream.batches_of(50);

    std::size_t observed = 0;
    const auto result = test::engine_stream(
        base, batches, config, [&](const BatchStats& stats) {
            EXPECT_EQ(stats.batch_index, observed);
            ++observed;
        });
    EXPECT_EQ(observed, batches.size());
    ASSERT_EQ(result.batches.size(), batches.size());

    // Replay the stream on fresh views to rebuild the final graph.
    auto views = test::dynamic_views(base, config);
    net::Simulator sim(config.num_ranks, config.network);
    IncrementalCounter counter(sim, views, config.options, config.stream_indirect,
                               result.initial.triangles);
    for (const auto& batch : batches) { counter.apply_batch(batch); }
    const auto final_graph = materialize_global(views);
    EXPECT_EQ(result.count.triangles, seq::count_edge_iterator(final_graph).triangles);

    // Deltas must chain: initial + Σ delta = final.
    std::int64_t running = static_cast<std::int64_t>(result.initial.triangles);
    for (const auto& stats : result.batches) {
        running += stats.delta;
        EXPECT_EQ(static_cast<std::uint64_t>(running), stats.triangles);
    }
    EXPECT_EQ(static_cast<std::uint64_t>(running), result.count.triangles);
    EXPECT_GT(result.stream_seconds, 0.0);
}

TEST(IncrementalCounting, NoOpEventsFoldAway) {
    const auto base = katric::test::complete_graph(8);  // 56 triangles
    Config config;
    config.num_ranks = 3;
    auto views = test::dynamic_views(base, config);
    net::Simulator sim(config.num_ranks, config.network);
    IncrementalCounter counter(sim, views, config.options, config.stream_indirect, 56);

    EdgeBatch batch;
    batch.events.push_back({0.0, 0, 1, EventKind::kInsert});  // re-insert: no-op
    batch.events.push_back({0.1, 2, 5, EventKind::kDelete});
    batch.events.push_back({0.2, 2, 5, EventKind::kInsert});  // cancels the delete
    batch.events.push_back({0.3, 3, 3, EventKind::kInsert});  // self-loop: dropped
    const auto stats = counter.apply_batch(batch);
    EXPECT_EQ(stats.net_inserts, 0u);
    EXPECT_EQ(stats.net_deletes, 0u);
    EXPECT_EQ(stats.delta, 0);
    EXPECT_EQ(counter.triangles(), 56u);
    EXPECT_EQ(stats.messages_sent, 0u);  // nothing to do, nothing sent
}

TEST(IncrementalCounting, InsertThenDeleteWithinOneBatchIsTransparent) {
    const auto base = katric::test::path_graph(10);
    Config config;
    config.num_ranks = 4;
    auto views = test::dynamic_views(base, config);
    net::Simulator sim(config.num_ranks, config.network);
    IncrementalCounter counter(sim, views, config.options, config.stream_indirect, 0);

    EdgeBatch batch;
    batch.events.push_back({0.0, 0, 2, EventKind::kInsert});  // closes {0,1,2}
    batch.events.push_back({0.1, 0, 2, EventKind::kDelete});  // …and reopens it
    batch.events.push_back({0.2, 4, 6, EventKind::kInsert});  // closes {4,5,6}
    const auto stats = counter.apply_batch(batch);
    EXPECT_EQ(stats.net_inserts, 1u);
    EXPECT_EQ(stats.net_deletes, 0u);
    EXPECT_EQ(counter.triangles(), 1u);
}

TEST(IncrementalCounting, DeletingEveryEdgeReachesZero) {
    const auto base = katric::test::complete_graph(10);  // 120 triangles
    Config config;
    config.num_ranks = 5;
    auto views = test::dynamic_views(base, config);
    net::Simulator sim(config.num_ranks, config.network);
    IncrementalCounter counter(sim, views, config.options, config.stream_indirect, 120);

    EdgeStream stream;
    double t = 0.0;
    for (VertexId u = 0; u < 10; ++u) {
        for (VertexId v = u + 1; v < 10; ++v) {
            stream.push({t, u, v, EventKind::kDelete});
            t += 0.001;
        }
    }
    for (const auto& batch : stream.batches_of(9)) {
        counter.apply_batch(batch);
        EXPECT_EQ(counter.triangles(),
                  seq::count_edge_iterator(materialize_global(views)).triangles);
    }
    EXPECT_EQ(counter.triangles(), 0u);
    for (const auto& view : views) { EXPECT_EQ(view.num_local_half_edges(), 0u); }
}

TEST(IncrementalCounting, MultiChangedEdgeTrianglesAreCorrectedExactly) {
    // Whole subgraphs arriving and leaving in one batch: every intersection
    // through them sees k ∈ {2,3} — the multiplicity correction path, not
    // the common k=1 path. Both kernels run; on adaptive every non-empty
    // row is a hub. With an inline pool every rank runs on this thread, so
    // no batch may leave a mark bit set on it.
    for (const auto kind : seq::all_intersect_kinds()) {
        SCOPED_TRACE(seq::intersect_kind_name(kind));
        const auto base = graph::build_undirected(graph::EdgeList{}, 9);
        Config config;
        config.num_ranks = 3;
        config.partition = core::PartitionStrategy::kUniformVertices;  // edgeless input
        config.options.intersect = kind;
        if (core::uses_hub_bitmaps(kind)) { config.options.hub_threshold = 1; }
        auto views = test::dynamic_views(base, config);
        net::RankPool inline_pool(0);
        net::Simulator sim(config.num_ranks, config.network, inline_pool);
        IncrementalCounter counter(sim, views, config.options, config.stream_indirect, 0);
        double t = 0.0;
        const auto apply = [&](const std::vector<graph::Edge>& edges,
                               EventKind event_kind) {
            EdgeBatch batch;
            for (const auto& e : edges) {
                batch.events.push_back({t, e.u, e.v, event_kind});
                t += 0.1;
            }
            const auto stats = counter.apply_batch(batch);
            EXPECT_EQ(counter.triangles(),
                      seq::count_edge_iterator(materialize_global(views)).triangles);
            EXPECT_EQ(seq::merge_marks_set_on_this_thread(), 0u);
            return stats.delta;
        };

        // A triangle arriving whole, beside edges that close nothing yet:
        // the spokes {0,1} and {4,5} stay, so later shipped rows carry
        // unchanged words that match nothing.
        const std::vector<graph::Edge> triangle{{0, 4}, {4, 8}, {0, 8}};
        std::vector<graph::Edge> first = triangle;
        first.insert(first.end(), {{0, 1}, {4, 5}, {2, 6}});
        EXPECT_EQ(apply(first, EventKind::kInsert), 1);
        // And the same triangle leaving whole.
        EXPECT_EQ(apply(triangle, EventKind::kDelete), -1);
        EXPECT_EQ(counter.triangles(), 0u);

        // A K5 arriving whole around the unchanged edge {2,6}: the three
        // triangles through it have k = 2, the other seven k = 3, so the
        // shipped rows mix flagged and unflagged words.
        std::vector<graph::Edge> k5;
        const graph::VertexId clique[] = {0, 2, 4, 6, 8};
        for (std::size_t i = 0; i < 5; ++i) {
            for (std::size_t j = i + 1; j < 5; ++j) {
                k5.push_back({clique[i], clique[j]});
            }
        }
        EXPECT_EQ(apply(k5, EventKind::kInsert), 10);
        // And the K5 leaving whole, {2,6} included.
        EXPECT_EQ(apply(k5, EventKind::kDelete), -10);
        EXPECT_EQ(counter.triangles(), 0u);
    }
}

TEST(IncrementalCounting, OwnedSliceIsTheOwnerFilter) {
    // Every rank's slice of a sorted canonical edge list is the
    // rank_of(e.u) == r filter of it: ranks owning no vertex at either end
    // and in the middle, p > n, and lists from empty to dense.
    const std::vector<Partition1D> partitions{Partition1D::uniform(64, 5),
                                              Partition1D({0, 0, 10, 10, 40, 64, 64}),
                                              Partition1D::uniform(64, 70)};
    std::mt19937_64 rng(5);
    for (const auto& partition : partitions) {
        const VertexId n = partition.num_vertices();
        for (const std::size_t size : {0, 1, 40, 400}) {
            SCOPED_TRACE("p=" + std::to_string(partition.num_ranks()) + " size "
                         + std::to_string(size));
            std::vector<Edge> edges;
            if (size > 1) { edges = {{0, 1}, {n - 2, n - 1}}; }
            while (edges.size() < size) {
                const Edge e{rng() % n, rng() % n};
                if (!e.is_self_loop()) { edges.push_back(e.canonical()); }
            }
            std::sort(edges.begin(), edges.end());
            for (Rank r = 0; r < partition.num_ranks(); ++r) {
                std::vector<Edge> expected;
                for (const auto& e : edges) {
                    if (partition.rank_of(e.u) == r) { expected.push_back(e); }
                }
                const auto slice = owned_slice(edges, partition, r);
                EXPECT_EQ(std::vector<Edge>(slice.begin(), slice.end()), expected)
                    << "rank " << r;
            }
        }
    }
}

TEST(IncrementalCounting, ChangedEdgesAgreeWithAnOrderedSetReference) {
    // One set refilled batch after batch, growing, shrinking and keeping its
    // size (200 then 190), over a universe whose ends (0 and n − 1) are in
    // every non-empty batch. Every vertex's span must list exactly its
    // changed neighbors, from both orientations of the canonical edges, in
    // ascending order.
    const VertexId n = 50;
    std::mt19937_64 rng(11);
    ChangedEdges changed;
    for (const std::size_t size : {0, 3, 200, 190, 30, 600, 1}) {
        SCOPED_TRACE("size " + std::to_string(size));
        std::vector<Edge> edges;
        if (size > 0) { edges = {{0, n - 1}, {0, 1}, {n - 2, n - 1}}; }
        while (edges.size() < size) {
            const Edge e{rng() % n, rng() % n};
            if (!e.is_self_loop()) { edges.push_back(e.canonical()); }
        }
        edges.resize(size);
        std::sort(edges.begin(), edges.end());
        edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
        const std::set<Edge> reference(edges.begin(), edges.end());
        changed.assign(edges);
        for (VertexId x = 0; x < n + 2; ++x) {
            std::vector<VertexId> expected;
            for (VertexId w = 0; w < n; ++w) {
                if (reference.contains(Edge{x, w}.canonical())) { expected.push_back(w); }
            }
            const auto span = changed.neighbors(x);
            ASSERT_EQ(std::vector<VertexId>(span.begin(), span.end()), expected)
                << "vertex " << x;
        }
    }
}

/// The fold as a hash map from each canonical edge to its presence before
/// and after the batch, sorted afterwards — the reference for fold_batch.
NetEffect map_fold(const EdgeBatch& batch, const std::vector<DynamicDistGraph>& views) {
    const auto& partition = views.front().partition();
    std::unordered_map<std::pair<VertexId, VertexId>, std::pair<bool, bool>, PairHash> folded;
    for (const auto& event : batch.events) {
        if (event.u == event.v) { continue; }
        const Edge e = Edge{event.u, event.v}.canonical();
        auto it = folded.find({e.u, e.v});
        if (it == folded.end()) {
            const bool present = views[partition.rank_of(e.u)].has_edge(e.u, e.v);
            it = folded.emplace(std::pair{e.u, e.v}, std::pair{present, present}).first;
        }
        it->second.second = event.kind == EventKind::kInsert;
    }
    NetEffect net;
    for (const auto& [key, presence] : folded) {
        const auto [initial, current] = presence;
        if (initial && !current) { net.deletes.push_back({key.first, key.second}); }
        if (!initial && current) { net.inserts.push_back({key.first, key.second}); }
    }
    std::sort(net.deletes.begin(), net.deletes.end());
    std::sort(net.inserts.begin(), net.inserts.end());
    return net;
}

TEST(IncrementalCounting, SortFoldMatchesTheMapFold) {
    const auto base = gen::generate_gnm(40, 120, 7);
    Config config;
    config.num_ranks = 4;
    const auto views = test::dynamic_views(base, config);
    const auto present = [&](VertexId u, VertexId v) { return base.has_edge(u, v); };

    // One edge, present or absent, inserted and deleted over and over: k
    // events in alternating orientation, pairs sharing a timestamp and
    // self-loops in between — only the last event may decide.
    std::vector<Edge> singles;
    for (VertexId u = 0; u < 40 && singles.size() < 2; ++u) {
        for (VertexId v = u + 1; v < 40; ++v) {
            if (present(u, v) == singles.empty()) {
                singles.push_back({u, v});
                break;
            }
        }
    }
    ASSERT_EQ(singles.size(), 2u);
    std::size_t changed = 0;
    for (const Edge edge : singles) {
        for (std::size_t k = 1; k <= 7; ++k) {
            for (const auto first : {EventKind::kInsert, EventKind::kDelete}) {
                EdgeBatch batch;
                auto kind = first;
                for (std::size_t i = 0; i < k; ++i) {
                    const double t = static_cast<double>(i / 2);
                    const Edge e = i % 2 == 0 ? edge : Edge{edge.v, edge.u};
                    batch.events.push_back({t, e.u, e.v, kind});
                    batch.events.push_back({t, e.u, e.u, EventKind::kInsert});
                    kind = kind == EventKind::kInsert ? EventKind::kDelete
                                                      : EventKind::kInsert;
                }
                const auto expected = map_fold(batch, views);
                changed += expected.deletes.size() + expected.inserts.size();
                EXPECT_EQ(fold_batch(batch, views), expected)
                    << "edge {" << edge.u << ", " << edge.v << "}, " << k << " events";
            }
        }
    }
    EXPECT_GT(changed, 0u);

    // Random churn over a few vertices: many edges, each repeated.
    std::mt19937_64 rng(3);
    for (int round = 0; round < 20; ++round) {
        EdgeBatch batch;
        for (int i = 0; i < 200; ++i) {
            const auto kind = rng() % 2 == 0 ? EventKind::kInsert : EventKind::kDelete;
            batch.events.push_back({static_cast<double>(i / 3), rng() % 8, rng() % 8, kind});
        }
        EXPECT_EQ(fold_batch(batch, views), map_fold(batch, views)) << "round " << round;
    }
}

}  // namespace
}  // namespace katric::stream
