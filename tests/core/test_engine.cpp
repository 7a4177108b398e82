// katric::Engine: the session facade. The load-bearing property is
// reuse-equivalence — every query against one built Engine must be
// bit-identical to a one-shot run of the core layer (fresh views, fresh
// machine, views preprocessed on it before the run), across every algorithm, both
// partition strategies, both kernel families, every test graph family,
// interleaved and concurrently served query kinds, hardened queries, and
// every setting of the preprocessing-charge rule. Plus the typed
// sink-precondition error, OOM reporting, and the stream promotion.

#include <gtest/gtest.h>

#include <future>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "core/approx.hpp"
#include "core/dist_lcc.hpp"
#include "engine.hpp"
#include "gen/gnm.hpp"
#include "gen/rgg2d.hpp"
#include "gen/rhg.hpp"
#include "gen/rmat.hpp"
#include "seq/edge_iterator.hpp"
#include "seq/lcc.hpp"
#include "stream/edge_stream.hpp"
#include "support/engine_query.hpp"
#include "support/expect_count.hpp"
#include "support/oneshot.hpp"
#include "support/test_graphs.hpp"
#include "util/assert.hpp"

namespace katric {
namespace {

using core::Algorithm;

/// Asserts an Engine report against its one-shot reference. With `skip`
/// (reuse_preprocessing on, charge_reused_preprocessing off) the report must
/// say it skipped the preprocessing charge and keep every answer exact;
/// otherwise it must match the reference bit for bit on every field.
void expect_matches_reference(const Report& report, const Report& reference, bool skip,
                              const std::string& what) {
    EXPECT_EQ(report.reused_preprocessing, skip) << what;
    if (!skip) {
        test::expect_identical_reports(report, reference, what);
        return;
    }
    // Same answers; only the preprocessing charges are gone.
    EXPECT_EQ(report.count.preprocessing_time, 0.0) << what;
    EXPECT_LE(report.count.total_time, reference.count.total_time) << what;
    EXPECT_EQ(report.count.triangles, reference.count.triangles) << what;
    EXPECT_EQ(report.count.local_phase_triangles, reference.count.local_phase_triangles)
        << what;
    EXPECT_EQ(report.count.oom, reference.count.oom) << what;
    EXPECT_EQ(report.error, reference.error) << what;
    EXPECT_EQ(report.delta, reference.delta) << what;
    EXPECT_EQ(report.lcc, reference.lcc) << what;
    EXPECT_TRUE(report.triangles == reference.triangles) << what;
    EXPECT_EQ(report.found_per_rank, reference.found_per_rank) << what;
    EXPECT_EQ(report.estimated_triangles, reference.estimated_triangles) << what;
}

/// Runs count / lcc / enumerate for every algorithm, then approx, on
/// `engine` and checks each against the one-shot reference on `g`. Returns
/// the number of queries run.
std::size_t expect_every_query_matches_reference(const Engine& engine,
                                                 const graph::CsrGraph& g,
                                                 const Config& config, bool skip,
                                                 const std::string& label) {
    std::size_t queries = 0;
    for (const auto algorithm : core::all_algorithms()) {
        auto spec = config.run_spec();
        spec.algorithm = algorithm;
        const auto what = core::algorithm_name(algorithm) + " " + label;
        expect_matches_reference(engine.count(algorithm), test::oneshot_count(g, spec),
                                 skip, "count " + what);
        expect_matches_reference(engine.lcc(algorithm), test::oneshot_lcc(g, spec), skip,
                                 "lcc " + what);
        QueryOptions query;
        query.algorithm = algorithm;
        expect_matches_reference(engine.enumerate(query), test::oneshot_enumerate(g, spec),
                                 skip, "enumerate " + what);
        queries += 3;
    }
    expect_matches_reference(engine.approx_count(),
                             test::oneshot_approx(g, config.run_spec(), config.amq), skip,
                             "approx " + label);
    return queries + 1;
}

/// One cell of the preprocessing-charge rule — (reuse_preprocessing,
/// charge_reused_preprocessing) — on one partition and kernel family.
class ConfigRuleSweep
    : public ::testing::TestWithParam<
          std::tuple<bool, bool, core::PartitionStrategy, seq::IntersectKind>> {};

/// The acceptance property: in every cell, one Engine answers count / lcc /
/// enumerate / approx for every algorithm, twice (the second pass catches
/// state the first left behind). Every cell but (reuse, no charge) matches
/// the one-shot reference bit for bit on every report field; that cell
/// skips the preprocessing charge and says so, with counts and payloads
/// still exact.
TEST_P(ConfigRuleSweep, EveryQueryMatchesOneShotReference) {
    const auto [reuse, charge, partition, kernel] = GetParam();
    const auto g = gen::generate_rgg2d(256, gen::rgg2d_radius_for_degree(256, 8.0), 7);
    Config config;
    config.num_ranks = 4;
    config.partition = partition;
    config.options.intersect = kernel;
    config.reuse_preprocessing = reuse;
    config.charge_reused_preprocessing = charge;
    const Engine engine(g, config);

    std::size_t queries = 0;
    for (int pass = 0; pass < 2; ++pass) {
        queries += expect_every_query_matches_reference(
            engine, g, config, reuse && !charge, "pass " + std::to_string(pass));
    }
    EXPECT_EQ(engine.queries_run(), queries);
}

INSTANTIATE_TEST_SUITE_P(
    ReuseCharge, ConfigRuleSweep,
    ::testing::Combine(::testing::Bool(), ::testing::Bool(),
                       ::testing::Values(core::PartitionStrategy::kBalancedEdges,
                                         core::PartitionStrategy::kUniformVertices),
                       ::testing::Values(seq::IntersectKind::kMerge,
                                         seq::IntersectKind::kAdaptive)),
    [](const auto& name_info) {
        const auto& cell = name_info.param;
        return std::string("reuse") + (std::get<0>(cell) ? "1" : "0") + "_charge"
               + (std::get<1>(cell) ? "1" : "0") + "_"
               + partition_strategy_name(std::get<2>(cell)) + "_"
               + seq::intersect_kind_name(std::get<3>(cell));
    });

/// The graph families of support/test_graphs.hpp, one test per family.
class EngineFamilyTest : public ::testing::TestWithParam<std::size_t> {
protected:
    static const test::FamilyCase& family() {
        static const auto cases = test::family_cases();
        return cases[GetParam()];
    }
};

/// Build-once preprocessing replayed per query must reproduce the in-run
/// build on every graph shape — hub-heavy R-MAT, dense cliques, sparse grids
/// — with the hub-bitmap kernels whose indices the build fills.
TEST_P(EngineFamilyTest, EveryQueryMatchesOneShotReference) {
    const auto& g = family().graph;
    Config config;
    config.num_ranks = 4;
    config.options.intersect = seq::IntersectKind::kAdaptive;
    const Engine engine(g, config);
    const auto queries =
        expect_every_query_matches_reference(engine, g, config, false, family().name);
    EXPECT_EQ(engine.queries_run(), queries);
}

/// The skipped replay keeps every answer exact against the sequential
/// references, independently of the distributed core.
TEST_P(EngineFamilyTest, SkippedReplayKeepsSequentialAnswers) {
    const auto& g = family().graph;
    Config config;
    config.num_ranks = 4;
    config.reuse_preprocessing = true;
    const Engine engine(g, config);
    const auto triangles = seq::count_edge_iterator(g).triangles;
    const auto delta = seq::per_vertex_triangles(g);
    for (const auto algorithm : core::all_algorithms()) {
        const auto what = core::algorithm_name(algorithm) + " " + family().name;
        const auto count = engine.count(algorithm);
        EXPECT_TRUE(count.reused_preprocessing) << what;
        EXPECT_EQ(count.count.preprocessing_time, 0.0) << what;
        EXPECT_EQ(count.count.triangles, triangles) << what;
        if (!core::algorithm_supports_sink(algorithm)) { continue; }
        const auto lcc = engine.lcc(algorithm);
        EXPECT_EQ(lcc.delta, delta) << what;
        QueryOptions query;
        query.algorithm = algorithm;
        EXPECT_EQ(engine.enumerate(query).triangles.size(), triangles) << what;
    }
}

/// Hardened queries replay the preprocessing exchange size-only, so an
/// unreused hardened engine reports exactly what the charged-replay engine
/// reports, and both answer what the unhardened engine answers.
TEST_P(EngineFamilyTest, HardenedReplayMatchesChargedReuseAndUnhardenedAnswers) {
    const auto& g = family().graph;
    Config config;
    config.num_ranks = 4;
    const Engine plain(g, config);
    config.harden = true;
    const Engine hardened(g, config);
    config.reuse_preprocessing = true;
    config.charge_reused_preprocessing = true;
    const Engine charged(g, config);
    for (const auto algorithm : core::all_algorithms()) {
        const auto what = core::algorithm_name(algorithm) + " " + family().name;
        const auto report = hardened.count(algorithm);
        EXPECT_TRUE(report.hardened) << what;
        test::expect_identical_reports(report, charged.count(algorithm), what);
        EXPECT_EQ(report.count.triangles, plain.count(algorithm).count.triangles) << what;
        if (!core::algorithm_supports_sink(algorithm)) { continue; }
        const auto lcc = hardened.lcc(algorithm);
        test::expect_identical_reports(lcc, charged.lcc(algorithm), "lcc " + what);
        EXPECT_EQ(lcc.delta, plain.lcc(algorithm).delta) << "lcc " + what;
    }
}

/// The const query path holds no lock: queries served concurrently on one
/// shared Engine must each match the one-shot reference bit for bit.
TEST_P(EngineFamilyTest, ConcurrentServingMatchesOneShotReference) {
    const auto& g = family().graph;
    Config config;
    config.num_ranks = 4;
    config.options.intersect = seq::IntersectKind::kAdaptive;
    const Engine engine(g, config);
    auto session = engine.serve({.threads = 2, .queue_depth = 16});
    std::vector<std::pair<Report, std::future<Report>>> served;
    for (const auto algorithm : core::all_algorithms()) {
        auto spec = config.run_spec();
        spec.algorithm = algorithm;
        ServeRequest request;
        request.options.algorithm = algorithm;
        request.query = Query::kCount;
        served.emplace_back(test::oneshot_count(g, spec), session.submit(request));
        if (!core::algorithm_supports_sink(algorithm)) { continue; }
        request.query = Query::kLcc;
        served.emplace_back(test::oneshot_lcc(g, spec), session.submit(request));
    }
    session.drain();
    for (auto& [reference, future] : served) {
        test::expect_identical_reports(future.get(), reference,
                                       core::algorithm_name(reference.algorithm) + " "
                                           + family().name);
    }
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, EngineFamilyTest, ::testing::Range<std::size_t>(0, 7),
                         [](const auto& name_info) {
                             static const auto cases = test::family_cases();
                             return cases[name_info.param].name;
                         });

/// Hub-bitmap kernels keep per-rank indices on the shared views; the
/// recorded ledger must re-charge their build identically every query.
TEST(EngineEquivalence, AdaptiveKernelQueriesStayIdentical) {
    const auto g = test::complete_graph(24);
    Config config;
    config.num_ranks = 3;
    config.options.intersect = seq::IntersectKind::kAdaptive;
    const Engine engine(g, config);
    for (const auto algorithm :
         {Algorithm::kCetric, Algorithm::kDitric, Algorithm::kCetric2}) {
        auto spec = config.run_spec();
        spec.algorithm = algorithm;
        test::expect_identical_reports(engine.count(algorithm),
                                       test::oneshot_count(g, spec),
                                       "adaptive " + core::algorithm_name(algorithm));
    }
}

TEST(EngineEquivalence, MixedQueryKindsMatchOneShotTwins) {
    const auto g = gen::generate_rgg2d(256, gen::rgg2d_radius_for_degree(256, 8.0), 13);
    Config config;
    config.algorithm = Algorithm::kCetric;
    config.num_ranks = 4;
    const Engine engine(g, config);
    const auto spec = config.run_spec();

    // count → lcc → enumerate → approx → count again, all on one build.
    const auto count1 = engine.count();
    const auto lcc = engine.lcc();
    const auto enumerated = engine.enumerate();
    const auto approx = engine.approx_count();
    const auto count2 = engine.count();

    test::expect_identical_reports(count1, count2, "count repeatability");
    test::expect_identical_reports(count1, test::oneshot_count(g, spec), "count");
    test::expect_identical_reports(lcc, test::oneshot_lcc(g, spec), "lcc");
    test::expect_identical_reports(enumerated, test::oneshot_enumerate(g, spec),
                                   "enumerate");
    test::expect_identical_reports(approx, test::oneshot_approx(g, spec, config.amq),
                                   "approx");

    // And the count agrees with the sequential reference.
    EXPECT_EQ(count1.count.triangles, seq::count_edge_iterator(g).triangles);
    EXPECT_EQ(engine.queries_run(), 5u);
}

TEST(EngineEquivalence, StreamPromotionMatchesOneShotStreaming) {
    const auto base = gen::generate_rgg2d(256, gen::rgg2d_radius_for_degree(256, 8.0), 3);
    const auto churn = stream::make_churn_stream(base, 384, 0.4, 11);
    const auto batches = churn.batches_of(96);
    for (const bool maintain_lcc : {false, true}) {
        Config config;
        config.algorithm = Algorithm::kCetric;
        config.num_ranks = 4;
        config.maintain_lcc = maintain_lcc;

        // The engine runs other queries first — the stream promotion must
        // still match a fresh engine's streaming run bit for bit, and its
        // initial pass the one-shot reference.
        const Engine engine(base, config);
        (void)engine.count();
        const auto report = engine.stream(batches);

        const auto fresh = test::engine_stream(base, batches, config);
        const auto initial = maintain_lcc ? test::oneshot_lcc(base, config.run_spec())
                                          : test::oneshot_count(base, config.run_spec());
        test::expect_identical_counts(report.initial, initial.count, "stream initial");
        test::expect_identical_counts(report.initial, fresh.initial, "fresh initial");
        EXPECT_EQ(report.count.triangles, fresh.count.triangles);
        EXPECT_EQ(report.stream_seconds, fresh.stream_seconds);
        ASSERT_EQ(report.batches.size(), fresh.batches.size());
        for (std::size_t i = 0; i < report.batches.size(); ++i) {
            EXPECT_EQ(report.batches[i].triangles, fresh.batches[i].triangles);
            EXPECT_EQ(report.batches[i].delta, fresh.batches[i].delta);
            EXPECT_EQ(report.batches[i].seconds, fresh.batches[i].seconds);
            EXPECT_EQ(report.batches[i].lcc_seconds, fresh.batches[i].lcc_seconds);
            EXPECT_EQ(report.batches[i].words_sent, fresh.batches[i].words_sent);
        }
        EXPECT_EQ(report.delta, fresh.delta);
        EXPECT_EQ(report.lcc, fresh.lcc);
    }
}

// --- typed failures ---------------------------------------------------------

TEST(Engine, SinkUnsupportedIsTypedErrorNotACrash) {
    const auto g = test::bowtie_graph();
    for (const auto algorithm : {Algorithm::kTricStyle, Algorithm::kHavoqgtStyle}) {
        Config config;
        config.algorithm = algorithm;
        config.num_ranks = 2;
        const Engine engine(g, config);

        const auto lcc = engine.lcc();
        EXPECT_FALSE(lcc.ok());
        EXPECT_EQ(lcc.error, core::RunError::kSinkUnsupported);
        EXPECT_FALSE(lcc.error.message.empty());
        EXPECT_TRUE(lcc.delta.empty());

        const auto enumerated = engine.enumerate();
        EXPECT_EQ(enumerated.error, core::RunError::kSinkUnsupported);
        EXPECT_TRUE(enumerated.triangles.empty());

        // Plain counting (no sink) still works on the same engine.
        const auto count = engine.count();
        EXPECT_TRUE(count.ok());
        EXPECT_EQ(count.count.triangles, 2u);
    }
}

TEST(Engine, DispatchAlgorithmReturnsTypedErrorDirectly) {
    const auto g = test::triangle_graph();
    core::RunSpec spec;
    spec.algorithm = Algorithm::kTricStyle;
    spec.num_ranks = 2;
    auto views = graph::distribute(g, core::make_partition(g, spec));
    net::Simulator sim(spec.num_ranks, spec.network);
    const core::TriangleSink sink = [](core::Rank, core::VertexId, core::VertexId,
                                       core::VertexId) {};
    const auto result = core::dispatch_algorithm(sim, views, spec, &sink);
    EXPECT_EQ(result.error, core::RunError::kSinkUnsupported);
    EXPECT_EQ(result.triangles, 0u);
    EXPECT_EQ(sim.time(), 0.0) << "nothing may run on a rejected dispatch";
    // Without the sink the same dispatch succeeds.
    const auto ok = core::dispatch_algorithm(sim, views, spec, nullptr);
    EXPECT_EQ(ok.error, core::RunError::kNone);
    EXPECT_EQ(ok.triangles, 1u);
}

/// Every entry point runs on views that core::run_preprocessing built: raw
/// views fail loudly before any superstep instead of yielding a wrong count.
/// TriC-style never preprocesses, so it counts raw views exactly.
TEST(Engine, RawViewsFailLoudlyBeforeAnySuperstep) {
    const auto g = gen::generate_rmat(7, 512, 4);
    const auto expected = seq::count_edge_iterator(g).triangles;
    const auto expect_untouched = [](const net::Simulator& sim, const std::string& what) {
        EXPECT_TRUE(sim.phases().empty()) << what;
        EXPECT_EQ(sim.time(), 0.0) << what;
    };
    for (const auto algorithm : core::all_algorithms()) {
        const std::string what = core::algorithm_name(algorithm);
        core::RunSpec spec;
        spec.algorithm = algorithm;
        spec.num_ranks = 3;
        const auto views = graph::distribute(g, core::make_partition(g, spec));
        net::Simulator sim(spec.num_ranks, spec.network);
        if (algorithm == Algorithm::kTricStyle) {
            EXPECT_EQ(core::dispatch_algorithm(sim, views, spec).triangles, expected);
            continue;
        }
        EXPECT_THROW((void)core::dispatch_algorithm(sim, views, spec), assertion_error)
            << what;
        expect_untouched(sim, what);
        if (core::algorithm_supports_sink(algorithm)) {
            net::Simulator lcc_sim(spec.num_ranks, spec.network);
            EXPECT_THROW((void)core::compute_distributed_lcc(lcc_sim, views, g, spec),
                         assertion_error)
                << what;
            expect_untouched(lcc_sim, what + " lcc");
        }
    }
    core::RunSpec spec;
    spec.algorithm = Algorithm::kCetric;
    spec.num_ranks = 3;
    const auto views = graph::distribute(g, core::make_partition(g, spec));
    net::Simulator sim(spec.num_ranks, spec.network);
    EXPECT_THROW(
        (void)core::count_triangles_cetric_amq(sim, views, spec, core::AmqOptions{}),
        assertion_error);
    expect_untouched(sim, "CETRIC-AMQ");
}

/// Every query kind — and a query served through a ServeSession — reports a
/// blown per-PE memory budget in Report::count.oom instead of throwing.
TEST(Engine, OomIsReportedByEveryQueryKindNotThrown) {
    const auto g = gen::generate_rmat(8, 2048, 3);
    Config config;
    config.num_ranks = 4;
    config.options.buffer_threshold_words = 1 << 20;
    config.network.memory_limit_words = 64;
    const Engine engine(g, config);

    const auto expect_oom = [](const Report& report, const std::string& what) {
        EXPECT_TRUE(report.count.oom) << what;
        EXPECT_FALSE(report.ok()) << what;
    };
    Report report;
    ASSERT_NO_THROW(report = engine.count());
    expect_oom(report, "count");
    ASSERT_NO_THROW(report = engine.lcc());
    expect_oom(report, "lcc");
    ASSERT_NO_THROW(report = engine.enumerate());
    expect_oom(report, "enumerate");
    ASSERT_NO_THROW(report = engine.approx_count());
    expect_oom(report, "approx_count");

    auto session = engine.serve({.threads = 1, .queue_depth = 1});
    ServeRequest request;
    request.query = Query::kLcc;
    auto future = session.submit(request);
    ASSERT_NO_THROW(report = future.get());
    expect_oom(report, "served lcc");
}

// --- smaller facade contracts -------------------------------------------

TEST(Engine, EnumerateWithSinkForwardsEveryFind) {
    const auto g = test::bowtie_graph();
    Config config;
    config.algorithm = Algorithm::kCetric;
    config.num_ranks = 2;
    const Engine engine(g, config);
    // Counted per finder: different finders may call the sink concurrently.
    std::vector<std::size_t> forwarded(config.num_ranks, 0);
    const core::TriangleSink sink = [&](core::Rank finder, core::VertexId, core::VertexId,
                                        core::VertexId) { ++forwarded[finder]; };
    const auto report = engine.enumerate(sink);
    EXPECT_TRUE(report.ok());
    EXPECT_EQ(std::accumulate(forwarded.begin(), forwarded.end(), std::size_t{0}), 2u);
    EXPECT_TRUE(report.triangles.empty()) << "sink mode collects nothing";
    EXPECT_EQ(report.count.triangles, 2u);
}

TEST(Engine, ReportCarriesOpsTelemetryAndJson) {
    const auto g = test::complete_graph(12);
    Config config;
    config.num_ranks = 2;
    const Engine engine(g, config);
    const auto report = engine.count();
    EXPECT_GT(report.total_compute_ops, 0u);
    EXPECT_GE(report.total_compute_ops, report.max_compute_ops);
    EXPECT_GT(report.max_compute_ops, 0u);
    const auto json = report.to_json();
    EXPECT_NE(json.find("\"query\": \"count\""), std::string::npos);
    EXPECT_NE(json.find("\"triangles\": 220"), std::string::npos);
    EXPECT_NE(json.find("\"total_compute_ops\""), std::string::npos);
}

TEST(DistributedCorrectness, AdaptiveMatchesMergeBitIdenticallyAcrossAlgorithms) {
    // The acceptance property of the kernel subsystem: --intersect=adaptive
    // must be invisible in every counting result, per phase, for every
    // algorithm that builds hub bitmaps (preprocessing family) and the
    // baselines that never do.
    const auto g = gen::generate_rmat(9, 4096, 31);  // skewed: real hubs
    for (const Algorithm algorithm : core::all_algorithms()) {
        core::RunSpec merge_spec;
        merge_spec.algorithm = algorithm;
        merge_spec.num_ranks = 7;
        merge_spec.options.intersect = seq::IntersectKind::kMerge;
        core::RunSpec adaptive_spec = merge_spec;
        adaptive_spec.options.intersect = seq::IntersectKind::kAdaptive;
        adaptive_spec.options.hub_threshold = 4;
        const auto expected = test::engine_count(g, merge_spec);
        const auto actual = test::engine_count(g, adaptive_spec);
        ASSERT_FALSE(expected.oom);
        ASSERT_FALSE(actual.oom);
        EXPECT_EQ(actual.triangles, expected.triangles) << algorithm_name(algorithm);
        EXPECT_EQ(actual.local_phase_triangles, expected.local_phase_triangles)
            << algorithm_name(algorithm);
        EXPECT_EQ(actual.global_phase_triangles, expected.global_phase_triangles)
            << algorithm_name(algorithm);
    }
}

class TerminationDetectionTest : public ::testing::TestWithParam<Algorithm> {};

TEST_P(TerminationDetectionTest, VerdictCoincidesWithExactCount) {
    const auto g = gen::generate_rhg(800, 10.0, 2.8, 21);
    const auto expected = seq::count_edge_iterator(g).triangles;
    core::RunSpec spec;
    spec.algorithm = GetParam();
    spec.num_ranks = 8;
    spec.options.detect_termination = true;
    const auto result = test::engine_count(g, spec);
    ASSERT_FALSE(result.oom);
    EXPECT_EQ(result.triangles, expected);
}

TEST_P(TerminationDetectionTest, ProtocolCostsExtraMessagesOnly) {
    const auto g = gen::generate_gnm(600, 4800, 23);
    core::RunSpec spec;
    spec.algorithm = GetParam();
    spec.num_ranks = 8;
    const auto omniscient = test::engine_count(g, spec);
    spec.options.detect_termination = true;
    const auto detected = test::engine_count(g, spec);
    EXPECT_EQ(detected.triangles, omniscient.triangles);
    // Control traffic (reports + verdicts) adds messages and time, never
    // removes any.
    EXPECT_GT(detected.total_messages_sent, omniscient.total_messages_sent);
    EXPECT_GE(detected.total_time, omniscient.total_time);
}

INSTANTIATE_TEST_SUITE_P(EdgeIteratorFamily, TerminationDetectionTest,
                         ::testing::Values(Algorithm::kDitric, Algorithm::kDitric2,
                                           Algorithm::kEdgeIteratorUnbuffered));
// The contracted exchange runs the same detector: a missing verdict would
// fail the run's termination assertion.
INSTANTIATE_TEST_SUITE_P(ContractedExchange, TerminationDetectionTest,
                         ::testing::Values(Algorithm::kCetric, Algorithm::kCetric2));

}  // namespace
}  // namespace katric
