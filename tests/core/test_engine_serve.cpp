// Engine::serve — concurrent query serving on one shared Engine. The
// acceptance property: a mixed batch of queries served by N workers is
// BIT-IDENTICAL to the same batch run sequentially on an identically built
// engine — across every algorithm, both partition strategies, and both
// preprocessing rules (charged replay and skip). Plus the admission layer:
// bounded-queue overflow rejects with a typed ServeError::kRejected, a
// drained session answers kStopped, and stream requests answer
// kUnsupported.

#include <gtest/gtest.h>

#include <future>
#include <string>
#include <vector>

#include "engine.hpp"
#include "gen/rgg2d.hpp"
#include "support/expect_count.hpp"
#include "support/test_graphs.hpp"

namespace katric {
namespace {

using core::Algorithm;

/// The mixed workload every equivalence case serves: one request per
/// algorithm (count), plus an LCC, an enumeration, and an approx query on
/// the sink-capable default algorithm.
std::vector<ServeRequest> mixed_requests() {
    std::vector<ServeRequest> requests;
    for (const auto algorithm :
         {Algorithm::kDitric, Algorithm::kCetric, Algorithm::kCetric2,
          Algorithm::kDitric2, Algorithm::kTricStyle, Algorithm::kHavoqgtStyle}) {
        ServeRequest request;
        request.query = Query::kCount;
        request.options.algorithm = algorithm;
        requests.push_back(request);
    }
    {
        ServeRequest request;
        request.query = Query::kLcc;
        requests.push_back(request);
    }
    {
        ServeRequest request;
        request.query = Query::kEnumerate;
        requests.push_back(request);
    }
    {
        ServeRequest request;
        request.query = Query::kApprox;
        requests.push_back(request);
    }
    return requests;
}

Report run_sequential(const Engine& engine, const ServeRequest& request) {
    switch (request.query) {
        case Query::kCount: return engine.count(request.options);
        case Query::kLcc: return engine.lcc(request.options);
        case Query::kEnumerate: return engine.enumerate(request.options);
        case Query::kApprox: return engine.approx_count(request.options);
        case Query::kStream: break;
    }
    ADD_FAILURE() << "unservable query in the sequential baseline";
    return {};
}

class ServeEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<core::PartitionStrategy, bool>> {};

TEST_P(ServeEquivalenceTest, ConcurrentServingMatchesSequentialBitForBit) {
    const auto [partition, skip] = GetParam();
    const auto g = gen::generate_rgg2d(256, gen::rgg2d_radius_for_degree(256, 10.0), 7);

    Config config;
    config.num_ranks = 4;
    config.partition = partition;
    // Either every query replays the preprocessing ledger, or none does.
    config.reuse_preprocessing = skip;

    const auto requests = mixed_requests();

    // Sequential baseline: its own engine, so the serving engine's state is
    // provably not influenced by the baseline's query history.
    Engine sequential(g, config);
    std::vector<Report> expected;
    expected.reserve(requests.size());
    for (const auto& request : requests) {
        expected.push_back(run_sequential(sequential, request));
    }

    Engine served(g, config);
    ServeOptions options;
    options.threads = 4;
    options.queue_depth = requests.size();
    auto session = served.serve(options);
    std::vector<std::future<Report>> futures;
    futures.reserve(requests.size());
    for (const auto& request : requests) {
        futures.push_back(session.submit(request));
    }
    session.drain();

    for (std::size_t i = 0; i < requests.size(); ++i) {
        const auto report = futures[i].get();
        test::expect_identical_reports(report, expected[i],
                                       "request " + std::to_string(i) + " (partition "
                                           + partition_strategy_name(partition)
                                           + (skip ? ", skip)" : ", charged)"));
    }

    const auto stats = session.stats();
    EXPECT_EQ(stats.submitted, requests.size());
    EXPECT_EQ(stats.completed, requests.size());
    EXPECT_EQ(stats.rejected, 0u);
    EXPECT_GE(stats.latency_p99, stats.latency_p50);
    EXPECT_EQ(served.queries_run(), sequential.queries_run());
}

INSTANTIATE_TEST_SUITE_P(
    AllPartitionsAndWarmth, ServeEquivalenceTest,
    ::testing::Combine(::testing::Values(core::PartitionStrategy::kUniformVertices,
                                         core::PartitionStrategy::kBalancedEdges),
                       ::testing::Bool()));

TEST(EngineServe, RepeatedServingRoundsStayDeterministic) {
    // Two serving rounds on one engine: the second round's reports must
    // equal the first's — concurrent queries leave no residue on the views.
    const auto g = test::petersen_graph();
    Config config;
    config.num_ranks = 3;
    config.reuse_preprocessing = true;
    Engine engine(g, config);

    const auto requests = mixed_requests();
    auto serve_round = [&] {
        auto session = engine.serve();
        std::vector<std::future<Report>> futures;
        for (const auto& request : requests) {
            futures.push_back(session.submit(request));
        }
        session.drain();
        std::vector<Report> reports;
        reports.reserve(futures.size());
        for (auto& future : futures) { reports.push_back(future.get()); }
        return reports;
    };

    const auto first = serve_round();
    const auto second = serve_round();
    ASSERT_EQ(first.size(), second.size());
    for (std::size_t i = 0; i < first.size(); ++i) {
        test::expect_identical_reports(first[i], second[i],
                                       "round 2 request " + std::to_string(i));
    }
}

TEST(EngineServe, OverflowRejectsWithTypedErrorAndAcceptedWorkCompletes) {
    const auto g = test::complete_graph(12);
    Config config;
    config.num_ranks = 2;
    config.reuse_preprocessing = true;
    Engine engine(g, config);

    // One worker and a tiny queue: flood faster than the single worker can
    // drain. At most depth + 1 (in-flight) + 1 (popped between submits)
    // requests can escape rejection in the worst interleaving; flooding
    // depth + 16 guarantees observable rejections.
    ServeOptions options;
    options.threads = 1;
    options.queue_depth = 2;
    auto session = engine.serve(options);

    const std::size_t flood = options.queue_depth + 16;
    std::vector<std::future<Report>> futures;
    futures.reserve(flood);
    for (std::size_t i = 0; i < flood; ++i) {
        futures.push_back(session.submit(QueryOptions{}));
    }
    session.drain();

    std::size_t rejected = 0;
    std::size_t completed = 0;
    for (auto& future : futures) {
        const auto report = future.get();
        if (report.error == ServeError::kRejected) {
            ++rejected;
            // A rejected submission never ran: no metrics, typed message.
            EXPECT_EQ(report.count.triangles, 0u);
            EXPECT_EQ(report.count.total_time, 0.0);
            EXPECT_FALSE(report.error.message.empty());
            EXPECT_EQ(report.error.serve(), ServeError::kRejected);
        } else {
            ++completed;
            EXPECT_TRUE(report.ok()) << report.error.message;
            EXPECT_EQ(report.count.triangles, 220u);  // C(12,3)
        }
    }
    EXPECT_EQ(rejected + completed, flood);
    EXPECT_GT(rejected, 0u);

    const auto stats = session.stats();
    EXPECT_EQ(stats.completed, completed);
    EXPECT_EQ(stats.rejected, rejected);
    EXPECT_EQ(stats.submitted, completed);
}

TEST(EngineServe, DrainedSessionAnswersStopped) {
    const auto g = test::bowtie_graph();
    Config config;
    config.num_ranks = 2;
    Engine engine(g, config);

    auto session = engine.serve();
    session.drain();
    session.drain();  // idempotent

    auto future = session.submit(QueryOptions{});
    const auto report = future.get();
    EXPECT_EQ(report.error, ServeError::kStopped);
    EXPECT_FALSE(report.ok());
    EXPECT_EQ(session.stats().rejected, 1u);
}

TEST(EngineServe, StreamRequestsAnswerUnsupported) {
    const auto g = test::bowtie_graph();
    Config config;
    config.num_ranks = 2;
    Engine engine(g, config);

    auto session = engine.serve();
    ServeRequest request;
    request.query = Query::kStream;
    const auto report = session.submit(request).get();
    EXPECT_EQ(report.error, ServeError::kUnsupported);
    EXPECT_EQ(report.query, Query::kStream);
    session.drain();
    EXPECT_EQ(session.stats().completed, 0u);
    EXPECT_EQ(session.stats().rejected, 1u);
}

TEST(EngineServe, HigherPriorityRequestsJumpTheQueue) {
    // Single worker, priorities submitted while the queue is idle-closed?
    // No — submit everything before any pop can interleave is impossible to
    // guarantee; instead verify completion *correctness* (every future
    // resolves with the right answer), and queue-order determinism is
    // covered by the AdmissionQueue unit tests.
    const auto g = test::petersen_graph();
    Config config;
    config.num_ranks = 2;
    Engine engine(g, config);

    ServeOptions options;
    options.threads = 1;
    options.queue_depth = 8;
    auto session = engine.serve(options);
    std::vector<std::future<Report>> futures;
    for (int i = 0; i < 6; ++i) {
        ServeRequest request;
        request.priority = i % 3;
        futures.push_back(session.submit(request));
    }
    session.drain();
    for (auto& future : futures) {
        const auto report = future.get();
        if (report.error == ServeError::kRejected) { continue; }
        EXPECT_TRUE(report.ok());
        EXPECT_EQ(report.count.triangles, 0u);  // Petersen graph is triangle-free
    }
}

TEST(EngineServe, ConfigDefaultsFeedServeOptions) {
    const auto g = test::bowtie_graph();
    Config config;
    config.num_ranks = 2;
    config.serve_threads = 3;
    config.queue_depth = 5;
    Engine engine(g, config);

    auto session = engine.serve();  // zeros in ServeOptions → Config values
    EXPECT_EQ(session.threads(), 3);
    EXPECT_EQ(session.queue_depth(), 5u);

    ServeOptions override_options;
    override_options.threads = 2;
    override_options.queue_depth = 9;
    auto tuned = engine.serve(override_options);
    EXPECT_EQ(tuned.threads(), 2);
    EXPECT_EQ(tuned.queue_depth(), 9u);
}

}  // namespace
}  // namespace katric
