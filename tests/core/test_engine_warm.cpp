// The Engine's preprocessing-charge rule and its build-once state: every
// engine preprocesses once at construction, and every query replays the
// recorded cost ledger — bit-identical to a one-shot run — unless
// Config::reuse_preprocessing is on without charge_reused_preprocessing,
// which skips the replay (counts exact, preprocessing charges omitted,
// Report::reused_preprocessing set). Also: typed errors on the skip path,
// streams interleaved with static queries, and custom Partition1D
// injection. The exhaustive sweep over every (reuse, charge) cell lives in
// test_engine.cpp.

#include <gtest/gtest.h>

#include "engine.hpp"
#include "gen/rgg2d.hpp"
#include "gen/rmat.hpp"
#include "graph/load_balance.hpp"
#include "seq/edge_iterator.hpp"
#include "stream/edge_stream.hpp"
#include "support/engine_query.hpp"
#include "support/expect_count.hpp"
#include "support/oneshot.hpp"
#include "support/test_graphs.hpp"
#include "util/assert.hpp"

namespace katric {
namespace {

using core::Algorithm;

TEST(EngineWarm, ChargeReusedPreprocessingRestoresBitIdenticalMetrics) {
    const auto g = gen::generate_rmat(8, 2048, 3);
    for (const auto partition : {core::PartitionStrategy::kBalancedEdges,
                                 core::PartitionStrategy::kUniformVertices}) {
        Config config;
        config.num_ranks = 4;
        config.partition = partition;
        config.options.intersect = seq::IntersectKind::kAdaptive;
        config.reuse_preprocessing = true;
        config.charge_reused_preprocessing = true;
        const Engine warm(g, config);
        for (const auto algorithm : core::all_algorithms()) {
            auto spec = config.run_spec();
            spec.algorithm = algorithm;
            test::expect_identical_reports(warm.count(algorithm),
                                           test::oneshot_count(g, spec),
                                           "fidelity " + core::algorithm_name(algorithm));
        }
    }
}

TEST(EngineWarm, SkippedReplayOmitsExactlyThePreprocessingCharges) {
    const auto g = test::complete_graph(24);
    Config config;
    config.num_ranks = 3;
    config.reuse_preprocessing = true;  // charge_reused_preprocessing stays off
    const Engine warm(g, config);
    config.charge_reused_preprocessing = true;
    const Engine charged(g, config);

    const auto oneshot = test::oneshot_count(g, config.run_spec());
    const auto replayed = charged.count();
    test::expect_identical_reports(replayed, oneshot, "charged query");
    EXPECT_FALSE(replayed.reused_preprocessing)
        << "a replayed query is metric-identical to a one-shot run";

    // The skipping engine answers the same count with strictly less
    // simulated time and no preprocessing phase at all.
    const auto skipped = warm.count();
    EXPECT_TRUE(skipped.reused_preprocessing);
    EXPECT_EQ(skipped.count.triangles, oneshot.count.triangles);
    EXPECT_EQ(skipped.count.preprocessing_time, 0.0);
    EXPECT_LT(skipped.count.total_time, oneshot.count.total_time);
    EXPECT_LT(skipped.count.total_messages_sent, oneshot.count.total_messages_sent);
}

/// Interleaving stream batches with static queries: the engine's static
/// state must not be perturbed by the dynamic session, and the stream itself
/// must match a fresh engine's streaming run exactly.
TEST(EngineWarm, StreamInterleavedWithStaticQueriesStaysExact) {
    const auto base = gen::generate_rgg2d(256, gen::rgg2d_radius_for_degree(256, 8.0), 3);
    const auto churn = stream::make_churn_stream(base, 384, 0.4, 11);
    const auto batches = churn.batches_of(96);
    for (const bool maintain_lcc : {false, true}) {
        Config config;
        config.algorithm = Algorithm::kCetric;
        config.num_ranks = 4;
        config.maintain_lcc = maintain_lcc;
        config.options.intersect = seq::IntersectKind::kAdaptive;
        config.reuse_preprocessing = true;

        const Engine warm(base, config);
        const auto before = warm.count();

        const auto report = warm.stream(batches);
        const auto fresh = test::engine_stream(base, batches, config);
        EXPECT_TRUE(report.reused_preprocessing)
            << "a skipping engine's stream initial pass skipped the charge too";
        EXPECT_EQ(report.initial.triangles, fresh.initial.triangles);
        EXPECT_EQ(report.count.triangles, fresh.count.triangles);
        ASSERT_EQ(report.batches.size(), fresh.batches.size());
        for (std::size_t i = 0; i < report.batches.size(); ++i) {
            EXPECT_EQ(report.batches[i].triangles, fresh.batches[i].triangles);
            EXPECT_EQ(report.batches[i].delta, fresh.batches[i].delta);
        }
        EXPECT_EQ(report.delta, fresh.delta);
        EXPECT_EQ(report.lcc, fresh.lcc);

        // A static query after the stream still answers for the base graph.
        test::expect_identical_reports(warm.count(), before, "count after the stream");
    }
}

TEST(EngineWarm, SinkUnsupportedSurvivesWarmReuse) {
    const auto g = test::bowtie_graph();
    for (const auto algorithm : {Algorithm::kTricStyle, Algorithm::kHavoqgtStyle}) {
        Config config;
        config.algorithm = algorithm;
        config.num_ranks = 2;
        config.reuse_preprocessing = true;
        const Engine warm(g, config);

        const auto lcc = warm.lcc();
        EXPECT_FALSE(lcc.ok());
        EXPECT_EQ(lcc.error, core::RunError::kSinkUnsupported);
        EXPECT_FALSE(lcc.error.message.empty());
        EXPECT_TRUE(lcc.delta.empty());
        EXPECT_NE(lcc.to_json().find("\"error\""), std::string::npos)
            << "JSON emission must carry the typed error for warm queries";
        EXPECT_NE(lcc.to_json().find("\"reused_preprocessing\": 1"), std::string::npos);

        const auto enumerated = warm.enumerate();
        EXPECT_EQ(enumerated.error, core::RunError::kSinkUnsupported);
        EXPECT_TRUE(enumerated.triangles.empty());

        // Plain counting still works on the same warm session afterwards.
        const auto count = warm.count();
        EXPECT_TRUE(count.ok());
        EXPECT_EQ(count.count.triangles, 2u);
    }
}

// --- Partition1D injection ----------------------------------------------

TEST(Engine, InjectedPartitionMatchesStrategyTwin) {
    const auto g = gen::generate_rgg2d(256, gen::rgg2d_radius_for_degree(256, 8.0), 17);
    Config config;
    config.num_ranks = 4;
    config.partition = core::PartitionStrategy::kUniformVertices;
    const Engine strategy_engine(g, config);
    const auto uniform = graph::Partition1D::uniform(g.num_vertices(), config.num_ranks);
    const Engine injected(g, config, uniform);
    for (const auto algorithm : {Algorithm::kCetric, Algorithm::kDitric}) {
        test::expect_identical_reports(
            injected.count(algorithm), strategy_engine.count(algorithm),
            "injected uniform " + core::algorithm_name(algorithm));
    }
}

TEST(Engine, InjectedCostFunctionPartitionCountsExactly) {
    const auto g = gen::generate_rmat(8, 2048, 9);
    const auto expected = seq::count_edge_iterator(g).triangles;
    Config config;
    config.num_ranks = 5;
    for (const auto fn :
         {graph::CostFunction::kDegreeSq, graph::CostFunction::kOrientedWedges}) {
        const Engine engine(g, config, graph::partition_by_cost(g, config.num_ranks, fn));
        EXPECT_EQ(engine.count().count.triangles, expected)
            << graph::cost_function_name(fn);
        // The skip rule composes with injection.
        Config warm_config = config;
        warm_config.reuse_preprocessing = true;
        const Engine warm(g, warm_config,
                          graph::partition_by_cost(g, config.num_ranks, fn));
        EXPECT_EQ(warm.count().count.triangles, expected)
            << "warm " << graph::cost_function_name(fn);
    }
}

TEST(Engine, InjectedPartitionMustAgreeWithConfig) {
    const auto g = test::complete_graph(12);
    Config config;
    config.num_ranks = 4;
    EXPECT_THROW((Engine{g, config, graph::Partition1D::uniform(g.num_vertices(), 3)}),
                 assertion_error);
    EXPECT_THROW((Engine{g, config, graph::Partition1D::uniform(7, 4)}),
                 assertion_error);
}

TEST(EngineWarm, WarmMonitorPresetIsWarm) {
    const auto g = test::complete_graph(16);
    auto config = Config::preset("warm-monitor");
    config.num_ranks = 3;
    const Engine engine(g, config);
    const auto report = engine.count();
    EXPECT_TRUE(report.reused_preprocessing) << "the monitor preset skips the replay";
    EXPECT_EQ(report.count.triangles, seq::count_edge_iterator(g).triangles);
}

}  // namespace
}  // namespace katric
