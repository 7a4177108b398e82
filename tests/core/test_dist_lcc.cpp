#include "core/dist_lcc.hpp"

#include <gtest/gtest.h>

#include "util/assert.hpp"

#include <algorithm>
#include <map>
#include <random>
#include <string>

#include "gen/rmat.hpp"
#include "net/rank_pool.hpp"
#include "support/engine_query.hpp"
#include "support/oneshot.hpp"
#include "support/oracle.hpp"
#include "support/test_graphs.hpp"

namespace katric::core {
namespace {

TEST(DistLcc, PostprocessingIsAccounted) {
    const auto g = gen::generate_rgg2d(512, gen::rgg2d_radius_for_degree(512, 10.0), 4);
    RunSpec spec;
    spec.algorithm = Algorithm::kCetric;
    spec.num_ranks = 8;
    const auto result = test::engine_lcc(g, spec);
    EXPECT_GT(result.postprocess_time, 0.0);
    EXPECT_GE(result.count.total_time, result.postprocess_time);
}

/// Preprocessing, the local phase and the Δ push all run as parallel start
/// rounds; with helper threads the finder-partitioned Δ state still adds
/// up to the oracle, at the inline run's simulated cost.
TEST(DistLcc, HelperThreadsMatchOracle) {
    net::RankPool inline_pool(0);
    net::RankPool helpers(3);
    const auto g = gen::generate_rmat(9, 4096, 5);
    for (const auto algorithm : {Algorithm::kDitric, Algorithm::kCetric}) {
        RunSpec spec;
        spec.algorithm = algorithm;
        spec.num_ranks = 8;
        const auto reference = test::oneshot_lcc(g, spec, inline_pool);
        const auto result = test::oneshot_lcc(g, spec, helpers);
        const std::string what = algorithm_name(algorithm);
        SCOPED_TRACE(what);
        test::expect_lcc_matches(g, result.delta, result.lcc);
        EXPECT_EQ(result.count.total_time, reference.count.total_time) << what;
        EXPECT_EQ(result.count.total_words_sent, reference.count.total_words_sent)
            << what;
    }
}

TEST(LccDeltaState, LocalCreditsLandDirectlyGhostsNeedAFlush) {
    // 3 ranks over 9 vertices: rank r owns [3r, 3r+3).
    LccDeltaState state(graph::Partition1D::uniform(9, 3));

    state.credit(0, 1, 2);  // local at rank 0
    state.credit(0, 4, 5);  // ghost of rank 1, seen at rank 0
    state.credit(2, 4, 1);  // ghost of rank 1, seen at rank 2
    state.credit(1, 4, 3);  // local at rank 1

    EXPECT_EQ(state.local(0, 1), 2);
    EXPECT_EQ(state.local(1, 4), 3);  // ghost credits not yet visible
    EXPECT_FALSE(state.ghosts_empty());

    for (Rank r = 0; r < 3; ++r) {
        for (const auto& [vertex, amount] : state.drain_ghosts(r)) {
            state.absorb(state.partition().rank_of(vertex), vertex, amount);
        }
    }
    EXPECT_TRUE(state.ghosts_empty());
    EXPECT_EQ(state.local(1, 4), 9);

    const auto global = state.assemble();
    const std::vector<std::int64_t> expected{0, 2, 0, 0, 9, 0, 0, 0, 0};
    EXPECT_EQ(global, expected);
}

TEST(LccDeltaState, SignedCreditsCancelAndDrainDeterministically) {
    LccDeltaState state(graph::Partition1D::uniform(8, 2));
    // Rank 0 sees ghost 6 gain a triangle and lose it again — the streaming
    // delete/insert pattern; the flushed record carries the net 0.
    state.credit(0, 6, 6);
    state.credit(0, 6, -6);
    state.credit(0, 7, -3);
    state.credit(0, 5, 2);

    const auto pairs = state.drain_ghosts(0);
    ASSERT_EQ(pairs.size(), 3u);  // sorted by vertex, including the zero entry
    EXPECT_EQ(pairs[0], (std::pair<VertexId, std::int64_t>{5, 2}));
    EXPECT_EQ(pairs[1], (std::pair<VertexId, std::int64_t>{6, 0}));
    EXPECT_EQ(pairs[2], (std::pair<VertexId, std::int64_t>{7, -3}));
    EXPECT_TRUE(state.ghosts_empty());
}

/// Rank 0 of 2 over 4096 vertices sees ~2000 distinct ghosts per round —
/// enough to grow its ghost table several times — with signed credits, some
/// of which cancel to 0. Each drain must equal an ordered-map reference,
/// zero sums included, and a second round reuses the drained table.
TEST(LccDeltaState, GhostTableGrowsDrainsSortedAndIsReused) {
    const VertexId n = 4096;
    LccDeltaState state(graph::Partition1D::uniform(n, 2));
    std::mt19937_64 rng(3);
    for (int round = 0; round < 2; ++round) {
        SCOPED_TRACE("round " + std::to_string(round));
        std::map<VertexId, std::int64_t> reference;
        for (int i = 0; i < 6000; ++i) {
            const VertexId v = n / 2 + rng() % (n / 2);  // a ghost at rank 0
            const auto amount = static_cast<std::int64_t>(rng() % 13) - 6;
            state.credit(0, v, amount);
            reference[v] += amount;
            if (i % 5 == 0) {  // a credit taken back whole
                state.credit(0, v, -amount);
                reference[v] -= amount;
            }
        }
        const VertexId cancelled = n - 1;  // credited and cancelled to 0
        state.credit(0, cancelled, 6);
        state.credit(0, cancelled, -6);
        reference[cancelled] += 0;
        EXPECT_FALSE(state.ghosts_empty());

        const auto pairs = state.drain_ghosts(0);
        const std::vector<std::pair<VertexId, std::int64_t>> expected(reference.begin(),
                                                                      reference.end());
        EXPECT_EQ(pairs, expected);
        EXPECT_GT(std::count_if(pairs.begin(), pairs.end(),
                                [](const auto& pair) { return pair.second == 0; }),
                  0);
        EXPECT_TRUE(state.ghosts_empty());
        EXPECT_TRUE(state.drain_ghosts(0).empty());
    }
}

TEST(LccDeltaState, NegativeResidueIsRejectedAtAssembly) {
    LccDeltaState state(graph::Partition1D::uniform(4, 2));
    state.credit(0, 0, -1);
    EXPECT_THROW((void)state.assemble(), katric::assertion_error);
}

TEST(DistLcc, BaselineAlgorithmsRejected) {
    // Baselines cannot drive a triangle sink: the run is rejected with a
    // typed error instead of an assertion — nothing runs, nothing crashes.
    const auto g = katric::test::triangle_graph();
    for (const auto algorithm : {Algorithm::kTricStyle, Algorithm::kHavoqgtStyle}) {
        RunSpec spec;
        spec.algorithm = algorithm;
        spec.num_ranks = 2;
        const auto result = test::engine_lcc(g, spec);
        EXPECT_EQ(result.count.error, RunError::kSinkUnsupported);
        EXPECT_EQ(result.count.triangles, 0u);
        EXPECT_TRUE(result.delta.empty());
        EXPECT_TRUE(result.lcc.empty());
        EXPECT_EQ(result.count.total_time, 0.0);
    }
}

}  // namespace
}  // namespace katric::core
