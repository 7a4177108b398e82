// Streaming regression tests for the hub bitmap index: dirty-set
// invalidation under insert/delete batches must keep every bitmap equal to
// its row, and streamed counts/LCC must stay equal to a full recompute with
// bitmaps forced on everywhere (hub_threshold=1 ⇒ every non-empty row is a
// hub, so every intersection takes the bitmap path).

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "gen/rmat.hpp"
#include "seq/edge_iterator.hpp"
#include "stream/stream_runner.hpp"
#include "support/engine_query.hpp"
#include "support/test_graphs.hpp"

namespace katric::stream {
namespace {

Config bitmap_config(Rank p) {
    Config config;
    config.algorithm = core::Algorithm::kCetric;
    config.num_ranks = p;
    config.options.intersect = seq::IntersectKind::kAdaptive;
    config.options.hub_threshold = 1;  // every non-empty row is a hub
    return config;
}

/// Every indexed bitmap must answer membership exactly like its row — the
/// invariant the dirty-set rebuild has to preserve across batches.
void expect_bitmaps_match_rows(const DynamicDistGraph& view) {
    const auto* hubs = view.hub_index();
    ASSERT_NE(hubs, nullptr);
    const VertexId begin = view.first_local();
    const VertexId end = begin + view.num_local();
    const VertexId n = view.partition().num_vertices();
    std::size_t indexed = 0;
    for (VertexId v = begin; v < end; ++v) {
        const auto row = view.neighbors(v);
        const auto* slot = hubs->lookup(v, row);
        if (slot == nullptr) {
            // Only rows below the threshold may be unindexed.
            EXPECT_LT(row.size(), std::size_t{1}) << "vertex " << v;
            continue;
        }
        ++indexed;
        for (VertexId w = 0; w < n; ++w) {
            const bool in_row = std::binary_search(row.begin(), row.end(), w);
            const std::span<const VertexId> probe(&w, 1);
            EXPECT_EQ(hubs->intersect_count(*slot, probe).count == 1, in_row)
                << "vertex " << v << ", neighbor " << w;
        }
    }
    // No hub is indexed over anything but its current row.
    EXPECT_EQ(hubs->num_hubs(), indexed);
}

TEST(HubBitmapStreaming, DirtyInvalidationKeepsBitmapsExact) {
    const auto base = gen::generate_rmat(7, 640, 17);
    const auto config = bitmap_config(4);
    auto views = test::dynamic_views(base, config);
    net::Simulator sim(config.num_ranks, config.network);
    const auto initial = test::engine_count(base, config.run_spec());
    ASSERT_FALSE(initial.oom);
    IncrementalCounter counter(sim, views, config.options, config.stream_indirect,
                               initial.triangles);
    for (const auto& view : views) { expect_bitmaps_match_rows(view); }

    const auto stream = make_churn_stream(base, 200, 0.5, 321);
    for (const auto& batch : stream.batches_of(25)) {
        counter.apply_batch(batch);
        // After every batch: counts exact AND every bitmap coherent.
        EXPECT_EQ(counter.triangles(),
                  seq::count_edge_iterator(materialize_global(views)).triangles);
        for (const auto& view : views) { expect_bitmaps_match_rows(view); }
    }
}

TEST(HubBitmapStreaming, DeletingEveryEdgeDropsEveryHub) {
    const auto base = katric::test::complete_graph(9);  // 84 triangles
    const auto config = bitmap_config(3);
    auto views = test::dynamic_views(base, config);
    net::Simulator sim(config.num_ranks, config.network);
    IncrementalCounter counter(sim, views, config.options, config.stream_indirect, 84);

    EdgeStream stream;
    double t = 0.0;
    for (VertexId u = 0; u < 9; ++u) {
        for (VertexId v = u + 1; v < 9; ++v) {
            stream.push({t, u, v, EventKind::kDelete});
            t += 0.001;
        }
    }
    for (const auto& batch : stream.batches_of(7)) { counter.apply_batch(batch); }
    EXPECT_EQ(counter.triangles(), 0u);
    for (const auto& view : views) {
        ASSERT_NE(view.hub_index(), nullptr);
        // Empty rows are below any threshold ≥ 1: the dirty rebuild must
        // have dropped every hub.
        EXPECT_EQ(view.hub_index()->num_hubs(), 0u);
        expect_bitmaps_match_rows(view);
    }
}

}  // namespace
}  // namespace katric::stream
