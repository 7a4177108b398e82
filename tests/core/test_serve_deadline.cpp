// Deadlines and graceful degradation under overload: requests that expire
// while queued are load-shed without running (ServeError::kDeadline),
// running queries are cancelled cooperatively at the next superstep
// boundary (pre-cancelled token / expired per-query deadline), and
// ServeSession::stats() breaks every non-success path down by reason so
// overload is diagnosable.

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <vector>

#include "engine.hpp"
#include "fault/fault_plan.hpp"
#include "support/test_graphs.hpp"

namespace katric {
namespace {

Engine make_engine(const graph::CsrGraph& graph) {
    Config config;
    config.num_ranks = 4;
    return Engine(graph, config);
}

TEST(ServeDeadline, ExpiredQueuedRequestsAreShedWithoutRunning) {
    const auto g = test::complete_graph(12);
    auto engine = make_engine(g);
    auto session = engine.serve();

    // A deadline this small has always expired by the time a worker pops
    // the request: it must be shed — never run, never counted as completed.
    ServeRequest doomed;
    doomed.deadline_seconds = 1e-9;
    auto future = session.submit(doomed);
    session.drain();

    const auto report = future.get();
    EXPECT_EQ(report.error, ServeError::kDeadline);
    EXPECT_FALSE(report.ok());
    EXPECT_EQ(report.count.triangles, 0u);
    EXPECT_EQ(report.count.total_time, 0.0);
    EXPECT_FALSE(report.error.message.empty());

    const auto stats = session.stats();
    EXPECT_EQ(stats.submitted, 1u);   // admitted, then shed
    EXPECT_EQ(stats.shed_deadline, 1u);
    EXPECT_EQ(stats.completed, 0u);
    EXPECT_EQ(stats.rejected, 0u);    // shedding is not a rejection
}

TEST(ServeDeadline, UnreachableDeadlinesNeverFire) {
    // In clock ticks, +inf or a deadline past the clock's range would wrap
    // into the past and cancel every query at its first superstep.
    const auto g = test::complete_graph(12);
    const Engine engine(g, Config::from_flags({"--ranks=4", "--deadline=inf"}));
    EXPECT_TRUE(engine.count().ok());
    QueryOptions query;
    query.deadline_seconds = 1e300;
    EXPECT_EQ(engine.count(query).count.triangles, 220u);
}

TEST(ServeDeadline, HealthyRequestsStillCompleteAroundShedOnes) {
    const auto g = test::complete_graph(12);
    auto engine = make_engine(g);
    auto session = engine.serve();

    std::vector<std::future<Report>> doomed;
    std::vector<std::future<Report>> healthy;
    for (int i = 0; i < 4; ++i) {
        ServeRequest request;
        request.deadline_seconds = 1e-9;
        doomed.push_back(session.submit(request));
        healthy.push_back(session.submit(QueryOptions{}));
    }
    session.drain();

    for (auto& future : doomed) {
        EXPECT_EQ(future.get().error, ServeError::kDeadline);
    }
    for (auto& future : healthy) {
        const auto report = future.get();
        ASSERT_TRUE(report.ok()) << report.error.message;
        EXPECT_EQ(report.count.triangles, 220u);  // C(12,3)
    }

    const auto stats = session.stats();
    EXPECT_EQ(stats.shed_deadline, 4u);
    EXPECT_EQ(stats.completed, 4u);
}

TEST(ServeDeadline, PreCancelledTokenStopsAQueryAtTheFirstBoundary) {
    const auto g = test::complete_graph(12);
    auto engine = make_engine(g);

    fault::CancelToken token;
    token.cancel();
    QueryOptions query;
    query.cancel = &token;
    const auto report = engine.count(query);

    EXPECT_EQ(report.error, ServeError::kDeadline);
    EXPECT_FALSE(report.ok());
    EXPECT_EQ(report.count.triangles, 0u);
    // Cancellation is cooperative, not corruption: the engine stays usable.
    const auto after = engine.count();
    ASSERT_TRUE(after.ok());
    EXPECT_EQ(after.count.triangles, 220u);
}

TEST(ServeDeadline, ExpiredPerQueryDeadlineCancelsCooperatively) {
    const auto g = test::complete_graph(12);
    auto engine = make_engine(g);

    QueryOptions query;
    query.deadline_seconds = 1e-9;  // expired before the first superstep
    const auto report = engine.count(query);
    EXPECT_EQ(report.error, ServeError::kDeadline);
    EXPECT_EQ(report.count.triangles, 0u);

    // A generous deadline never fires.
    QueryOptions relaxed;
    relaxed.deadline_seconds = 3600.0;
    const auto ok = engine.count(relaxed);
    ASSERT_TRUE(ok.ok());
    EXPECT_EQ(ok.count.triangles, 220u);
}

TEST(ServeDeadline, StatsBreakRejectionsDownByReason) {
    const auto g = test::complete_graph(12);
    auto engine = make_engine(g);

    ServeOptions options;
    options.threads = 1;
    options.queue_depth = 1;
    auto session = engine.serve(options);

    // Flood the depth-1 queue through its single worker until a submission
    // observes a full queue (kRejected → rejected_queue_full). A fixed-size
    // flood is racy — a promptly scheduled worker can drain arbitrarily many
    // submissions — so pump until the overflow is observed. Rejections
    // resolve synchronously inside submit(), so a ready future right after
    // submitting distinguishes them; the cap bounds the worst case.
    std::size_t queue_full = 0;
    std::size_t completed = 0;
    std::vector<std::future<Report>> pending;
    for (int i = 0; i < 5000 && queue_full == 0; ++i) {
        auto future = session.submit(QueryOptions{});
        if (future.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
            const auto report = future.get();
            if (report.error == ServeError::kRejected) {
                ++queue_full;
            } else {
                ASSERT_TRUE(report.ok()) << report.error.message;
                ++completed;
            }
        } else {
            pending.push_back(std::move(future));
        }
    }

    // A stream request is refused as unsupported regardless of load.
    ServeRequest stream_request;
    stream_request.query = Query::kStream;
    auto unsupported = session.submit(stream_request);

    session.drain();

    // Submissions into a drained session are refused as stopped.
    auto stopped = session.submit(QueryOptions{});
    EXPECT_EQ(stopped.get().error, ServeError::kStopped);
    EXPECT_EQ(unsupported.get().error, ServeError::kUnsupported);

    for (auto& future : pending) {
        const auto report = future.get();
        if (report.error == ServeError::kRejected) {
            ++queue_full;
        } else {
            ASSERT_TRUE(report.ok()) << report.error.message;
            ++completed;
        }
    }
    ASSERT_GT(queue_full, 0u);

    const auto stats = session.stats();
    EXPECT_EQ(stats.rejected_queue_full, queue_full);
    EXPECT_EQ(stats.rejected_stopped, 1u);
    EXPECT_EQ(stats.rejected_unsupported, 1u);
    // The aggregate stays the sum of its parts, and shedding is separate.
    EXPECT_EQ(stats.rejected, stats.rejected_queue_full + stats.rejected_stopped
                                  + stats.rejected_unsupported);
    EXPECT_EQ(stats.shed_deadline, 0u);
    EXPECT_EQ(stats.completed, completed);
}

}  // namespace
}  // namespace katric
