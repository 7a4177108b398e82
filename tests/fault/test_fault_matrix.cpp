// The PR's acceptance property, exhaustively: every fault class crossed
// with every algorithm, both partition strategies, and p ∈ {1, 4, 7}. Each
// cell either recovers to the bit-exact fault-free triangle count or fails
// with a typed Domain::kNet error — never a silently divergent count. A
// second pass on one cell checks seed reproducibility: identical specs give
// identical outcomes and identical fault schedules.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "engine.hpp"
#include "gen/rgg2d.hpp"
#include "graph/csr_graph.hpp"

namespace katric {
namespace {

constexpr core::Algorithm kAlgorithms[] = {
    core::Algorithm::kEdgeIteratorUnbuffered,
    core::Algorithm::kDitric,
    core::Algorithm::kDitric2,
    core::Algorithm::kCetric,
    core::Algorithm::kCetric2,
    core::Algorithm::kTricStyle,
    core::Algorithm::kHavoqgtStyle,
};
constexpr core::PartitionStrategy kPartitions[] = {
    core::PartitionStrategy::kUniformVertices,
    core::PartitionStrategy::kBalancedEdges,
};
constexpr graph::Rank kRankCounts[] = {1, 4, 7};

/// One shared 96-vertex RGG — small enough that the full 336-cell sweep
/// stays fast, dense enough (avg degree ≈ 8) that every rank pair talks.
const graph::CsrGraph& matrix_graph() {
    static const graph::CsrGraph graph = gen::generate_rgg2d(
        96, gen::rgg2d_radius_for_degree(96, 8.0), /*seed=*/7);
    return graph;
}

/// Runs every (algorithm × partition × p) cell under `fault_spec` and
/// asserts the exact-or-typed-error property against a fault-free baseline
/// engine built with the same topology.
void expect_exact_or_typed_net_error(const std::string& fault_spec) {
    const auto& graph = matrix_graph();
    for (const auto partition : kPartitions) {
        for (const auto p : kRankCounts) {
            Config base;
            base.num_ranks = p;
            base.partition = partition;

            Engine clean(graph, base);
            std::uint64_t baseline[std::size(kAlgorithms)];
            std::size_t i = 0;
            for (const auto algorithm : kAlgorithms) {
                const auto report = clean.count(algorithm);
                ASSERT_TRUE(report.error.ok());
                baseline[i++] = report.count.triangles;
            }

            Config faulty = base;
            faulty.fault_spec = fault_spec;
            // A generous budget so the probabilistic classes usually recover;
            // the property holds either way.
            faulty.max_retries = 8;
            Engine engine(graph, faulty);
            ASSERT_TRUE(engine.hardening_enabled());

            i = 0;
            for (const auto algorithm : kAlgorithms) {
                SCOPED_TRACE("spec=" + fault_spec + " p=" + std::to_string(p)
                             + " partition=" + std::to_string(static_cast<int>(partition))
                             + " algorithm=" + std::to_string(static_cast<int>(algorithm)));
                const auto report = engine.count(algorithm);
                if (report.error.ok()) {
                    // Recovered (or nothing fired on this cell): the count
                    // must be bit-exact, not merely close.
                    EXPECT_TRUE(report.hardened);
                    EXPECT_EQ(report.count.triangles, baseline[i]);
                } else {
                    // Unrecoverable: the failure must be typed, attributed
                    // to the network domain, and carry no bogus count.
                    EXPECT_EQ(report.error.domain, Error::Domain::kNet);
                    EXPECT_FALSE(report.error.message.empty());
                    EXPECT_EQ(report.count.triangles, 0u);
                }
                ++i;
            }
        }
    }
}

TEST(FaultMatrix, Drop) { expect_exact_or_typed_net_error("seed=11;drop=0.15"); }

TEST(FaultMatrix, Duplicate) { expect_exact_or_typed_net_error("seed=12;dup=0.3"); }

TEST(FaultMatrix, Reorder) { expect_exact_or_typed_net_error("seed=13;reorder=0.5"); }

TEST(FaultMatrix, Delay) {
    expect_exact_or_typed_net_error("seed=14;delay=0.3;delay-secs=0.01");
}

TEST(FaultMatrix, Truncate) { expect_exact_or_typed_net_error("seed=15;truncate=0.1"); }

TEST(FaultMatrix, BitFlip) { expect_exact_or_typed_net_error("seed=16;bitflip=0.1"); }

TEST(FaultMatrix, Crash) {
    // Rank 1 dies entering superstep 1: p=1 cells have no rank 1 and stay
    // fault-free; multi-rank cells must surface kRankLost, never a partial
    // count.
    expect_exact_or_typed_net_error("crash=1@1");
}

TEST(FaultMatrix, Stall) {
    expect_exact_or_typed_net_error("stall=1@0;stall-secs=0.05");
}

TEST(FaultMatrix, MixedPlan) {
    expect_exact_or_typed_net_error(
        "seed=99;drop=0.05;dup=0.05;reorder=0.2;bitflip=0.03;truncate=0.02;"
        "delay=0.1;delay-secs=0.005;stall=2@1;stall-secs=0.02");
}

TEST(FaultMatrix, IdenticalSpecsReproduceIdenticalOutcomes) {
    // Seed reproducibility on representative cells: the same spec on the
    // same topology gives the same count/error, the same fault schedule
    // (every FaultStats counter), and the same simulated-time metrics.
    const std::string spec =
        "seed=4242;drop=0.1;dup=0.1;bitflip=0.05;reorder=0.3";
    const auto& graph = matrix_graph();
    for (const auto algorithm : {core::Algorithm::kDitric, core::Algorithm::kCetric}) {
        Config config;
        config.num_ranks = 4;
        config.fault_spec = spec;
        config.max_retries = 8;

        Engine first_engine(graph, config);
        Engine second_engine(graph, config);
        const auto first = first_engine.count(algorithm);
        const auto second = second_engine.count(algorithm);

        EXPECT_EQ(first.error.ok(), second.error.ok());
        EXPECT_EQ(first.error.message, second.error.message);
        EXPECT_EQ(first.count.triangles, second.count.triangles);
        EXPECT_EQ(first.count.total_time, second.count.total_time);
        EXPECT_EQ(first.faults, second.faults);
        EXPECT_GT(first.faults.injected_total(), 0u);
        EXPECT_GT(first.faults.frames_sent, 0u);
    }
}

TEST(FaultMatrix, PinnedSchedulesReplay) {
    // The fault schedule depends on frame ids and attempts only, never on
    // how a frame is stored or on its checksum's value: these counters were
    // recorded with contiguous retained frames and the serial hash_combine
    // checksum.
    const std::string spec =
        "seed=99;drop=0.05;dup=0.05;reorder=0.2;bitflip=0.05;truncate=0.05";
    const auto& graph = matrix_graph();
    Config config;
    config.num_ranks = 7;
    config.partition = core::PartitionStrategy::kBalancedEdges;
    config.fault_spec = spec;
    config.max_retries = 8;
    Engine engine(graph, config);
    std::vector<std::uint64_t> counters;
    for (const auto algorithm : kAlgorithms) {
        const auto report = engine.count(algorithm);
        ASSERT_TRUE(report.error.ok());
        const fault::FaultStats& f = report.faults;
        counters.insert(counters.end(),
                        {f.frames_sent, f.injected_total(), f.injected_truncate,
                         f.injected_bitflip, f.corrupt_detected, f.duplicates_suppressed,
                         f.retransmits});
    }
    // Per algorithm: frames sent, faults injected, truncations, bit flips,
    // corruptions detected, duplicates suppressed, retransmits.
    const std::vector<std::uint64_t> pinned = {
        247, 105, 13, 14, 27, 16, 36,  //
        54, 16, 1, 1, 2, 4, 3,         //
        44, 13, 1, 1, 2, 3, 3,         //
        54, 16, 1, 1, 2, 4, 3,         //
        44, 13, 1, 1, 2, 3, 3,         //
        33, 10, 0, 1, 1, 2, 2,         //
        53, 16, 1, 1, 2, 4, 3,         //
    };
    EXPECT_EQ(counters, pinned);
}

}  // namespace
}  // namespace katric
