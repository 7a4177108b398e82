#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "core/enumerate.hpp"
#include "engine.hpp"
#include "seq/edge_iterator.hpp"
#include "seq/lcc.hpp"
#include "stream/edge_stream.hpp"

namespace katric::test {

/// Every triangle of `g` once, as sorted (a < b < c) triples in ascending
/// order (the loops walk sorted rows): the enumeration oracle.
inline std::vector<core::Triangle> brute_force_triangles(const graph::CsrGraph& g) {
    std::vector<core::Triangle> result;
    for (graph::VertexId a = 0; a < g.num_vertices(); ++a) {
        for (const graph::VertexId b : g.neighbors(a)) {
            if (b <= a) { continue; }
            for (const graph::VertexId c : g.neighbors(b)) {
                if (c > b && g.has_edge(a, c)) {
                    result.push_back(core::Triangle{a, b, c});
                }
            }
        }
    }
    return result;
}

/// Δ and LCC equal the sequential oracle's on `g`.
inline void expect_lcc_matches(const graph::CsrGraph& g,
                               const std::vector<std::uint64_t>& delta,
                               const std::vector<double>& lcc) {
    const auto oracle = seq::compute_lcc_oracle(g);
    EXPECT_EQ(delta, oracle.delta);
    ASSERT_EQ(lcc.size(), oracle.lcc.size());
    for (std::size_t v = 0; v < lcc.size(); ++v) {
        ASSERT_DOUBLE_EQ(lcc[v], oracle.lcc[v]) << "vertex " << v;
    }
}

/// A churn stream over the engine's graph: after every batch, the session's
/// count, Δ and LCC equal the oracles' on the graph it materializes. A graph
/// with fewer than two vertices admits no edge; it ingests one empty batch.
inline void expect_stream_matches_oracles(const Engine& engine) {
    const auto& g = engine.graph();
    std::vector<stream::EdgeBatch> batches(1);
    if (g.num_vertices() >= 2) {
        batches = stream::make_churn_stream(g, 96, 0.45, 1234).batches_of(24);
    }
    auto session = engine.open_stream();
    EXPECT_EQ(session.initial().triangles, seq::count_edge_iterator(g).triangles);
    EXPECT_EQ(session.triangles(), session.initial().triangles);
    for (std::size_t i = 0; i < batches.size(); ++i) {
        SCOPED_TRACE("stream batch " + std::to_string(i));
        const auto stats = session.ingest(batches[i]);
        ASSERT_TRUE(stats.error.ok()) << stats.error.message;
        const auto current = session.materialize_global();
        EXPECT_EQ(stats.triangles, seq::count_edge_iterator(current).triangles);
        EXPECT_EQ(session.triangles(), stats.triangles);
        expect_lcc_matches(current, session.delta(), session.lcc());
    }
    const auto report = session.report();
    EXPECT_EQ(report.query, Query::kStream);
    EXPECT_EQ(report.batches.size(), batches.size());
    EXPECT_EQ(report.count.triangles, session.triangles());
}

/// The check of one oracle-harness cell: one Engine on `g` under `config`
/// (the stream runs CETRIC with Δ/LCC maintenance, whatever `config` says)
/// answers as the sequential oracles do. Every algorithm's count is exact,
/// its phases sum to it, and p = 1 sends no word; every sink-capable one's
/// Δ/LCC and enumeration (per-rank finds included) are exact; and so is the
/// stream after every batch.
inline void expect_engine_matches_oracles(const graph::CsrGraph& g, Config config) {
    config.algorithm = core::Algorithm::kCetric;
    config.maintain_lcc = true;
    const auto expected = seq::count_edge_iterator(g).triangles;
    const auto triangles = brute_force_triangles(g);
    ASSERT_EQ(triangles.size(), expected) << "the sequential oracles disagree";

    const Engine engine(g, config);
    for (const auto algorithm : core::all_algorithms()) {
        SCOPED_TRACE(core::algorithm_name(algorithm));
        const auto count = engine.count(algorithm);
        ASSERT_TRUE(count.ok()) << count.error.message;
        EXPECT_EQ(count.count.triangles, expected);
        EXPECT_EQ(count.count.local_phase_triangles + count.count.global_phase_triangles,
                  expected);
        if (config.num_ranks == 1) { EXPECT_EQ(count.count.total_words_sent, 0u); }
        if (!core::algorithm_supports_sink(algorithm)) { continue; }

        const auto lcc = engine.lcc(algorithm);
        ASSERT_TRUE(lcc.ok()) << lcc.error.message;
        expect_lcc_matches(g, lcc.delta, lcc.lcc);

        QueryOptions query;
        query.algorithm = algorithm;
        const auto listed = engine.enumerate(query);
        ASSERT_TRUE(listed.ok()) << listed.error.message;
        EXPECT_TRUE(listed.triangles == triangles)
            << listed.triangles.size() << " listed, " << triangles.size() << " expected";
        const auto& found = listed.found_per_rank;
        EXPECT_EQ(std::accumulate(found.begin(), found.end(), std::uint64_t{0}),
                  triangles.size());
    }
    expect_stream_matches_oracles(engine);
}

}  // namespace katric::test
