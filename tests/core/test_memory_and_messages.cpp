#include <gtest/gtest.h>

#include <numeric>

#include "util/assert.hpp"

#include "core/runner.hpp"
#include "graph/orientation.hpp"
#include "gen/gnm.hpp"
#include "gen/rgg2d.hpp"
#include "gen/rmat.hpp"
#include "seq/edge_iterator.hpp"
#include "support/engine_query.hpp"
#include "support/oneshot.hpp"
#include "support/test_graphs.hpp"

namespace katric::core {
namespace {

TEST(MemoryBounds, DitricPeakBufferRespectsDelta) {
    // The linear-memory claim (Section IV-A): with δ ∈ O(|E_i|) the queue
    // buffer never exceeds δ plus one record.
    const auto g = gen::generate_rmat(11, 16384, 7);
    RunSpec spec;
    spec.algorithm = Algorithm::kDitric;
    spec.num_ranks = 16;
    spec.options.buffer_threshold_words = 512;
    const auto result = test::engine_count(g, spec);
    ASSERT_FALSE(result.oom);
    graph::Degree max_degree = 0;
    for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
        max_degree = std::max(max_degree, g.degree(v));
    }
    // One record is at most a full neighborhood plus headers.
    EXPECT_LE(result.max_peak_buffer_words, 512 + max_degree + 3);
}

TEST(MemoryBounds, TricStyleBufferGrowsWithVolumeAndOoms) {
    // TriC-style static buffering keeps the whole send volume resident; on a
    // wedge-heavy skewed instance this exceeds a small memory budget while
    // DITRIC sails through with the same budget.
    const auto g = gen::generate_rmat(11, 16384, 3);
    RunSpec spec;
    spec.num_ranks = 16;
    spec.network.memory_limit_words = 6000;

    spec.algorithm = Algorithm::kTricStyle;
    const auto tric = test::engine_count(g, spec);
    EXPECT_TRUE(tric.oom) << "static buffering should exhaust the budget";

    spec.algorithm = Algorithm::kDitric;
    spec.options.buffer_threshold_words = 1024;
    const auto ditric = test::engine_count(g, spec);
    EXPECT_FALSE(ditric.oom);
    EXPECT_EQ(ditric.triangles, seq::count_edge_iterator(g).triangles);
}

TEST(MemoryBounds, TricStyleSucceedsWithEnoughMemory) {
    const auto g = gen::generate_rmat(9, 4096, 3);
    RunSpec spec;
    spec.algorithm = Algorithm::kTricStyle;
    spec.num_ranks = 8;
    spec.network.memory_limit_words = std::uint64_t{1} << 24;
    const auto result = test::engine_count(g, spec);
    EXPECT_FALSE(result.oom);
    EXPECT_EQ(result.triangles, seq::count_edge_iterator(g).triangles);
}

TEST(Messages, SurrogateRuleSendsEachNeighborhoodOncePerPe) {
    // Upper bound on physical queue records: for DITRIC every (vertex,
    // destination-PE) pair contributes at most one record, so the total
    // shipped volume is bounded by Σ_v (#neighbor PEs of v)·(|A(v)|+3).
    const auto g = gen::generate_gnm(512, 4096, 17);
    RunSpec spec;
    spec.algorithm = Algorithm::kDitric;
    spec.num_ranks = 8;
    const auto partition = make_partition(g, spec);
    const auto oriented = graph::orient_by_degree(g);

    std::uint64_t volume_bound = 0;
    for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
        const auto out = oriented.neighbors(v);
        Rank last = partition.rank_of(v);
        for (graph::VertexId u : out) {
            const Rank owner = partition.rank_of(u);
            if (owner != partition.rank_of(v) && owner != last) {
                last = owner;
                volume_bound += out.size() + 3;  // record + headers
            }
        }
    }
    // Degree-exchange preprocessing adds at most 2 words per (interface
    // vertex, neighbor PE) pair; reduce adds 2(p−1) single words.
    volume_bound += 4 * g.num_edges() + 4 * spec.num_ranks;
    const auto result = test::engine_count(g, spec);
    EXPECT_LE(result.total_words_sent, volume_bound);
}

TEST(Messages, UnbufferedSendsFarMoreMessagesThanDitric) {
    // Fig. 2's mechanism: aggregation collapses per-edge messages.
    const auto g = gen::generate_gnm(1024, 8192, 11);
    RunSpec spec;
    spec.num_ranks = 16;
    spec.algorithm = Algorithm::kEdgeIteratorUnbuffered;
    const auto unbuffered = test::engine_count(g, spec);
    spec.algorithm = Algorithm::kDitric;
    const auto buffered = test::engine_count(g, spec);
    EXPECT_EQ(unbuffered.triangles, buffered.triangles);
    EXPECT_GT(unbuffered.total_messages_sent, 4 * buffered.total_messages_sent);
    EXPECT_GT(unbuffered.total_time, buffered.total_time);
}

TEST(Messages, IndirectionReducesMaxMessagesAtScale) {
    // With the default δ ∈ O(|E_i|), flush rounds send one message per
    // buffered partner: direct routing talks to up to p−1 peers, the grid
    // router to ~2√p. (With a pathologically small δ message counts become
    // volume-bound instead and this advantage disappears — that regime is
    // exercised in TinyThresholdForcesManyFlushesButStaysExact.)
    const auto g = gen::generate_gnm(64 * 48, 64 * 48 * 8, 23);
    RunSpec spec;
    spec.num_ranks = 64;
    spec.algorithm = Algorithm::kDitric;
    const auto direct = test::engine_count(g, spec);
    spec.algorithm = Algorithm::kDitric2;
    const auto indirect = test::engine_count(g, spec);
    EXPECT_EQ(direct.triangles, indirect.triangles);
    EXPECT_LT(indirect.max_messages_sent, direct.max_messages_sent);
    // Indirection pays with up to 2× volume (each record travels twice).
    EXPECT_LE(indirect.total_words_sent, 2 * direct.total_words_sent + 1000);
}

TEST(Messages, MetricsConservation) {
    // Σ sent = Σ received, in messages and words, for every algorithm.
    const auto g = gen::generate_rgg2d(600, gen::rgg2d_radius_for_degree(600, 10.0), 5);
    for (const Algorithm algorithm : all_algorithms()) {
        SCOPED_TRACE(algorithm_name(algorithm));
        RunSpec spec;
        spec.algorithm = algorithm;
        spec.num_ranks = 6;
        const auto partition = make_partition(g, spec);
        auto views = graph::distribute(g, partition);
        net::Simulator sim(spec.num_ranks, spec.network);
        test::preprocess_in_run(sim, views, spec.algorithm, spec.options);
        (void)dispatch_algorithm(sim, views, spec);
        std::uint64_t sent_messages = 0;
        std::uint64_t recv_messages = 0;
        std::uint64_t sent_words = 0;
        std::uint64_t recv_words = 0;
        for (const auto& m : sim.rank_metrics()) {
            sent_messages += m.messages_sent;
            recv_messages += m.messages_received;
            sent_words += m.words_sent;
            recv_words += m.words_received;
        }
        EXPECT_EQ(sent_messages, recv_messages);
        EXPECT_EQ(sent_words, recv_words);
    }
}

TEST(Messages, CloudNetworkFavorsCetric) {
    // The paper expects CETRIC to win on slower interconnects; with
    // cloud-like α/β on a locality-rich instance, CETRIC's global phase must
    // be cheaper than DITRIC's.
    const auto g = gen::generate_rgg2d(4096, gen::rgg2d_radius_for_degree(4096, 16.0), 9);
    RunSpec spec;
    spec.num_ranks = 16;
    spec.network = net::NetworkConfig::cloud_like();
    spec.algorithm = Algorithm::kDitric;
    const auto ditric = test::engine_count(g, spec);
    spec.algorithm = Algorithm::kCetric;
    const auto cetric = test::engine_count(g, spec);
    EXPECT_EQ(cetric.triangles, ditric.triangles);
    EXPECT_LT(cetric.global_time, ditric.global_time);
}

}  // namespace
}  // namespace katric::core

namespace katric::core {
namespace {

class CompressionTest : public ::testing::TestWithParam<Algorithm> {};

TEST_P(CompressionTest, CountsUnchangedVolumeReducedOnLocalIds) {
    // Spatially ordered RGG2D: neighborhood IDs are close together, so the
    // delta-varint records shrink the global phase substantially.
    const auto g =
        gen::generate_rgg2d_local(4096, gen::rgg2d_radius_for_degree(4096, 16.0), 11);
    RunSpec spec;
    spec.algorithm = GetParam();
    spec.num_ranks = 8;
    const auto plain = test::engine_count(g, spec);
    spec.options.compress_neighborhoods = true;
    const auto compressed = test::engine_count(g, spec);
    EXPECT_EQ(compressed.triangles, plain.triangles);
    EXPECT_EQ(compressed.local_phase_triangles, plain.local_phase_triangles);
    EXPECT_LT(compressed.total_words_sent, plain.total_words_sent);
}

TEST_P(CompressionTest, ExactOnShuffledIdsToo) {
    // Without locality the gaps are large and compression saves little, but
    // correctness must be unaffected.
    const auto g = gen::generate_gnm(1024, 8192, 13);
    const auto expected = seq::count_edge_iterator(g).triangles;
    RunSpec spec;
    spec.algorithm = GetParam();
    spec.num_ranks = 12;
    spec.options.compress_neighborhoods = true;
    EXPECT_EQ(test::engine_count(g, spec).triangles, expected);
}

INSTANTIATE_TEST_SUITE_P(CompressibleAlgorithms, CompressionTest,
                         ::testing::Values(Algorithm::kDitric, Algorithm::kDitric2,
                                           Algorithm::kCetric, Algorithm::kCetric2,
                                           Algorithm::kEdgeIteratorUnbuffered));

TEST(Compression, ComposesWithSinkAndTermination) {
    const auto g = gen::generate_rhg(600, 8.0, 2.8, 17);
    RunSpec spec;
    spec.algorithm = Algorithm::kDitric;
    spec.num_ranks = 6;
    spec.options.compress_neighborhoods = true;
    spec.options.detect_termination = true;
    // Counted per finder: different finders may call the sink concurrently.
    std::vector<std::uint64_t> sink_calls(spec.num_ranks, 0);
    const TriangleSink sink = [&](Rank finder, VertexId, VertexId, VertexId) {
        ++sink_calls[finder];
    };
    const auto result = test::engine_count(g, spec, &sink);
    EXPECT_EQ(result.triangles, seq::count_edge_iterator(g).triangles);
    EXPECT_EQ(std::accumulate(sink_calls.begin(), sink_calls.end(), std::uint64_t{0}),
              result.triangles);
}

}  // namespace
}  // namespace katric::core
