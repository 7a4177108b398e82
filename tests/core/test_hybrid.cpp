#include "core/hybrid.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "core/runner.hpp"
#include "seq/edge_iterator.hpp"
#include "support/engine_query.hpp"
#include "support/test_graphs.hpp"

namespace katric::core {
namespace {

TEST(ThreadBinner, SingleThreadIsSequentialSum) {
    ThreadBinner binner(1);
    for (std::uint64_t i = 1; i <= 100; ++i) { binner.add_task(i); }
    EXPECT_EQ(binner.makespan_ops(), 5050u);
    EXPECT_EQ(binner.total_ops(), 5050u);
}

TEST(ThreadBinner, MakespanBounds) {
    // Greedy chunked assignment: total/t ≤ makespan ≤ total.
    for (int threads : {2, 4, 8}) {
        ThreadBinner binner(threads, 4);
        std::uint64_t total = 0;
        for (std::uint64_t i = 0; i < 1000; ++i) {
            const std::uint64_t ops = (i * 37) % 100 + 1;
            binner.add_task(ops);
            total += ops;
        }
        EXPECT_EQ(binner.total_ops(), total);
        EXPECT_GE(binner.makespan_ops(), total / static_cast<std::uint64_t>(threads));
        EXPECT_LT(binner.makespan_ops(),
                  total / static_cast<std::uint64_t>(threads) * 3 / 2 + 500);
    }
}

TEST(ThreadBinner, PartialChunkCounted) {
    ThreadBinner binner(2, 1000);  // chunk never fills
    binner.add_task(10);
    binner.add_task(20);
    EXPECT_EQ(binner.makespan_ops(), 30u);
}

/// Makespan of the eager binner: all max(threads, 1) bins allocated up
/// front, each chunk to the first least-loaded bin.
std::uint64_t eager_makespan(int threads, std::uint64_t chunk_tasks,
                             const std::vector<std::uint64_t>& tasks) {
    std::vector<std::uint64_t> bins(static_cast<std::size_t>(std::max(threads, 1)), 0);
    std::uint64_t chunk_ops = 0;
    std::uint64_t fill = 0;
    for (const auto ops : tasks) {
        chunk_ops += ops;
        if (++fill == chunk_tasks) {
            *std::min_element(bins.begin(), bins.end()) += chunk_ops;
            chunk_ops = 0;
            fill = 0;
        }
    }
    std::uint64_t makespan = *std::max_element(bins.begin(), bins.end());
    if (fill > 0) {
        makespan =
            std::max(makespan, *std::min_element(bins.begin(), bins.end()) + chunk_ops);
    }
    return makespan;
}

TEST(ThreadBinner, LazyBinsMatchAnEagerReference) {
    std::uint64_t state = 0x9e3779b97f4a7c15ULL;
    for (const int threads : {0, 1, 2, 3, 5, 7, 16, 64}) {
        for (const std::uint64_t chunk : {1u, 4u, 64u}) {
            ThreadBinner binner(threads, chunk);
            std::vector<std::uint64_t> tasks;
            for (int i = 0; i < 400; ++i) {
                state = state * 6364136223846793005ULL + 1442695040888963407ULL;
                // Every fifth task is free: zero-op chunks tie at load 0.
                const std::uint64_t ops = i % 5 == 0 ? 0 : (state >> 33) % 50;
                tasks.push_back(ops);
                binner.add_task(ops);
                ASSERT_EQ(binner.makespan_ops(), eager_makespan(threads, chunk, tasks))
                    << "threads=" << threads << " chunk=" << chunk << " task " << i;
            }
        }
    }
}

TEST(ThreadBinner, HugeThreadCountOpensOnlyTheBinsItFills) {
    // More threads than chunks: every chunk opens its own bin, so the
    // makespan is the heaviest chunk — including the trailing partial one.
    constexpr int kThreads = std::numeric_limits<int>::max();
    constexpr std::uint64_t kChunk = 64;
    ThreadBinner binner(kThreads, kChunk);
    EXPECT_EQ(binner.threads(), kThreads);
    std::uint64_t heaviest = 0;
    std::uint64_t chunk_ops = 0;
    for (std::uint64_t i = 0; i < 4000; ++i) {  // 62 full chunks + 32 tasks
        const std::uint64_t ops = (i * 37) % 101;
        binner.add_task(ops);
        chunk_ops += ops;
        if ((i + 1) % kChunk == 0 || i + 1 == 4000) {
            heaviest = std::max(heaviest, chunk_ops);
            chunk_ops = 0;
        }
    }
    EXPECT_EQ(binner.makespan_ops(), heaviest);
}

// On a single PE every intersection runs in the local phase, so the binned
// local phase is the shared-memory parallel counter.
Report single_pe_count(const graph::CsrGraph& g, int threads) {
    Config config;
    config.algorithm = Algorithm::kDitric;
    config.num_ranks = 1;
    config.options.threads = threads;
    return Engine(g, config).count();
}

class ParallelThreadsTest : public ::testing::TestWithParam<int> {};

TEST_P(ParallelThreadsTest, MatchesSequentialOnAllFamilies) {
    const int threads = GetParam();
    for (const auto& fc : test::family_cases()) {
        SCOPED_TRACE(fc.name);
        const auto seq_result = seq::count_edge_iterator(fc.graph);
        const auto one = single_pe_count(fc.graph, 1);
        const auto par = single_pe_count(fc.graph, threads);
        EXPECT_EQ(par.count.triangles, seq_result.triangles);
        EXPECT_EQ(par.count.local_phase_triangles, seq_result.triangles);
        EXPECT_EQ(par.total_compute_ops, one.total_compute_ops);  // same total work
    }
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, ParallelThreadsTest, ::testing::Values(1, 2, 4, 8));

TEST(ParallelLocal, MaxThreadOpsBoundedByTotal) {
    // The binned phase costs the busiest thread's ops: at most the
    // sequential sum, at least its even share (pigeonhole).
    const auto g = gen::generate_rmat(10, 8192, 3);
    const auto one = single_pe_count(g, 1);
    const auto four = single_pe_count(g, 4);
    EXPECT_EQ(four.count.triangles, one.count.triangles);
    EXPECT_LT(four.count.local_time, one.count.local_time);
    EXPECT_GE(four.count.local_time, one.count.local_time / 4.0 * (1.0 - 1e-12));
}

TEST(ParallelLocal, SingleThreadDegenerate) {
    const auto report = single_pe_count(test::complete_graph(16), 1);
    EXPECT_EQ(report.count.triangles, 560u);  // C(16,3)
    EXPECT_EQ(report.count.local_phase_triangles, 560u);
    EXPECT_EQ(report.count.global_phase_triangles, 0u);
    EXPECT_EQ(report.max_compute_ops, report.total_compute_ops);
}

TEST(Hybrid, MoreThreadsShrinkLocalPhaseTime) {
    const auto g = gen::generate_rmat(12, 1 << 15, 21);
    RunSpec spec;
    spec.algorithm = Algorithm::kCetric;
    spec.num_ranks = 4;
    spec.options.threads = 1;
    const auto single = test::engine_count(g, spec);
    spec.options.threads = 12;
    const auto hybrid = test::engine_count(g, spec);
    EXPECT_EQ(single.triangles, hybrid.triangles);
    EXPECT_LT(hybrid.local_time, single.local_time);
    EXPECT_GT(hybrid.local_time, single.local_time / 14.0);  // no superlinear magic
}

TEST(Hybrid, ComputeOpsDoNotDependOnThreads) {
    // RankMetrics::compute_ops is independent of the time model: hybrid
    // threads shorten the simulated clock, never the counted work — in the
    // binned local phase (count) and the threaded global intersections (lcc).
    const auto g = gen::generate_rmat(10, 8192, 3);
    for (const Algorithm algorithm : {Algorithm::kDitric, Algorithm::kCetric}) {
        SCOPED_TRACE(algorithm_name(algorithm));
        Config config;
        config.algorithm = algorithm;
        config.num_ranks = 8;
        const Engine single(g, config);
        config.options.threads = 4;
        const Engine hybrid(g, config);
        for (const bool lcc : {false, true}) {
            SCOPED_TRACE(lcc ? "lcc" : "count");
            const auto one = lcc ? single.lcc() : single.count();
            const auto four = lcc ? hybrid.lcc() : hybrid.count();
            EXPECT_EQ(four.count.triangles, one.count.triangles);
            EXPECT_EQ(four.total_compute_ops, one.total_compute_ops);
            EXPECT_EQ(four.max_compute_ops, one.max_compute_ops);
            EXPECT_LT(four.count.total_time, one.count.total_time);
        }
    }
}

TEST(Hybrid, FewerFatterRanksReduceCommunicationVolume) {
    // Fixed "cores" = ranks × threads: the hybrid configuration with fewer
    // MPI ranks ships less data (the appendix's 84% volume reduction effect).
    const auto g = gen::generate_rhg(4096, 12.0, 2.8, 23);
    RunSpec flat;
    flat.algorithm = Algorithm::kDitric;
    flat.num_ranks = 48;
    flat.options.threads = 1;
    RunSpec hybrid = flat;
    hybrid.num_ranks = 4;
    hybrid.options.threads = 12;
    const auto flat_run = test::engine_count(g, flat);
    const auto hybrid_run = test::engine_count(g, hybrid);
    EXPECT_EQ(flat_run.triangles, hybrid_run.triangles);
    EXPECT_LT(hybrid_run.total_words_sent, flat_run.total_words_sent / 2);
}

}  // namespace
}  // namespace katric::core
