// Streaming regression tests for the hub bitmap index: dirty-set
// invalidation under insert/delete batches must keep every bitmap equal to
// its row, and streamed counts/LCC must stay equal to a full recompute with
// bitmaps forced on everywhere (hub_threshold=1 ⇒ every non-empty row is a
// hub, so every intersection takes the bitmap path).

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/dist_lcc.hpp"
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
    for (VertexId v = begin; v < end; ++v) {
        const auto row = view.neighbors(v);
        if (!hubs->contains_hub(v)) {
            // Only rows below the threshold may be unindexed.
            EXPECT_LT(row.size(), std::size_t{1}) << "vertex " << v;
            continue;
        }
        EXPECT_TRUE(hubs->covers(v, row)) << "vertex " << v;
        for (VertexId w = 0; w < n; ++w) {
            const bool in_row = std::binary_search(row.begin(), row.end(), w);
            EXPECT_EQ(hubs->probe(v, w), in_row)
                << "vertex " << v << ", neighbor " << w;
        }
    }
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

TEST(HubBitmapStreaming, CountsMatchRecountWithBitmapsForcedOn) {
    const auto base = gen::generate_rmat(8, 1536, 9);
    for (const Rank p : {1u, 4u, 7u}) {
        const auto config = bitmap_config(p);
        const auto stream = make_churn_stream(base, 240, 0.45, 1234);

        auto views = test::dynamic_views(base, config);
        net::Simulator sim(config.num_ranks, config.network);
        const auto initial = test::engine_count(base, config.run_spec());
        ASSERT_FALSE(initial.oom);
        IncrementalCounter counter(sim, views, config.options, config.stream_indirect,
                                   initial.triangles);
        for (const auto& batch : stream.batches_of(30)) {
            const auto stats = counter.apply_batch(batch);
            const auto recount =
                test::engine_count(materialize_global(views), config.run_spec());
            ASSERT_FALSE(recount.oom);
            ASSERT_EQ(counter.triangles(), recount.triangles)
                << "p=" << p << ", batch " << stats.batch_index;
        }
    }
}

TEST(HubBitmapStreaming, LccStaysExactUnderBitmapKernels) {
    const auto base = gen::generate_rmat(7, 768, 5);
    const auto config = bitmap_config(5);
    auto views = test::dynamic_views(base, config);
    net::Simulator sim(config.num_ranks, config.network);
    const auto initial = test::engine_lcc(base, config.run_spec());
    ASSERT_FALSE(initial.count.oom);
    IncrementalCounter counter(sim, views, config.options, config.stream_indirect,
                               initial.count.triangles);
    IncrementalLcc lcc(sim, views, config.options, config.stream_indirect, initial.delta);
    lcc.attach(counter);

    const auto stream = make_churn_stream(base, 180, 0.5, 77);
    for (const auto& batch : stream.batches_of(30)) {
        counter.apply_batch(batch);
        lcc.finish_batch();
        const auto current = materialize_global(views);
        const auto full = test::engine_lcc(current, config.run_spec());
        ASSERT_FALSE(full.count.oom);
        ASSERT_EQ(lcc.delta(), full.delta);
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
