#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "core/approx.hpp"
#include "core/dist_lcc.hpp"
#include "core/runner.hpp"
#include "gen/rmat.hpp"
#include "graph/distributed_graph.hpp"
#include "net/rank_pool.hpp"
#include "seq/adaptive_intersect.hpp"
#include "seq/edge_iterator.hpp"
#include "stream/edge_stream.hpp"
#include "stream/incremental.hpp"
#include "stream/incremental_lcc.hpp"
#include "support/engine_query.hpp"
#include "support/expect_count.hpp"
#include "support/oneshot.hpp"

namespace katric::core {
namespace {

// The real message handlers in parallel delivery windows: on an instance
// whose global phase carries windows past kFanOutWindowWords (64 Ki), a
// 3-helper pool fans them out, and every count, Δ, estimate and simulated
// metric must equal the inline run's. Under TSan this is the check that the
// handlers touch only their own rank's state.

constexpr Rank kRanks = 16;

const graph::CsrGraph& instance() {
    static const graph::CsrGraph g = gen::generate_rmat(13, 1 << 16, 7);
    return g;
}

std::uint64_t fanned_windows(const net::Simulator& sim) {
    std::uint64_t fanned = 0;
    for (const auto& phase : sim.phases()) { fanned += phase.host_windows_fanned; }
    return fanned;
}

RunSpec spec_for(Algorithm algorithm) {
    RunSpec spec;
    spec.algorithm = algorithm;
    spec.num_ranks = kRanks;
    return spec;
}

struct CountOutcome {
    CountResult count;
    std::uint64_t fanned = 0;
};

CountOutcome run_count(net::RankPool& pool, const RunSpec& spec) {
    auto views = graph::distribute(instance(), make_partition(instance(), spec));
    net::Simulator sim(spec.num_ranks, spec.network, pool);
    CountOutcome outcome;
    test::preprocess_in_run(sim, views, spec.algorithm, spec.options);
    outcome.count = dispatch_algorithm(sim, views, spec);
    outcome.fanned = fanned_windows(sim);
    return outcome;
}

TEST(ParallelDelivery, CountsMatchInlineRun) {
    net::RankPool inline_pool(0);
    net::RankPool helpers(3);
    const std::uint64_t expected = seq::count_edge_iterator(instance()).triangles;
    std::vector<std::pair<std::string, RunSpec>> cases;
    {
        // Compressed records decode into each rank's own buffer; the
        // termination detector's flags are per rank.
        RunSpec spec = spec_for(Algorithm::kDitric);
        spec.options.compress_neighborhoods = true;
        spec.options.detect_termination = true;
        cases.emplace_back("DITRIC compressed, detected", spec);
    }
    cases.emplace_back("DITRIC2", spec_for(Algorithm::kDitric2));
    cases.emplace_back("CETRIC2", spec_for(Algorithm::kCetric2));
    cases.emplace_back("HavoqGT", spec_for(Algorithm::kHavoqgtStyle));
    for (const auto& [what, spec] : cases) {
        const CountOutcome reference = run_count(inline_pool, spec);
        const CountOutcome parallel = run_count(helpers, spec);
        EXPECT_EQ(reference.count.triangles, expected) << what;
        EXPECT_EQ(reference.fanned, 0u) << what;
        EXPECT_GT(parallel.fanned, 0u) << what;
        test::expect_identical_counts(parallel.count, reference.count, what);
    }
}

TEST(ParallelDelivery, LccAndAmqMatchInlineRun) {
    net::RankPool inline_pool(0);
    net::RankPool helpers(3);
    const RunSpec spec = spec_for(Algorithm::kCetric);
    const auto lcc = [&](net::RankPool& pool) {
        auto views = graph::distribute(instance(), make_partition(instance(), spec));
        net::Simulator sim(spec.num_ranks, spec.network, pool);
        test::preprocess_in_run(sim, views, spec.algorithm, spec.options);
        auto result = compute_distributed_lcc(sim, views, instance(), spec);
        return std::pair{std::move(result), fanned_windows(sim)};
    };
    const auto [lcc_reference, lcc_inline_fanned] = lcc(inline_pool);
    const auto [lcc_parallel, lcc_fanned] = lcc(helpers);
    EXPECT_EQ(lcc_inline_fanned, 0u);
    EXPECT_GT(lcc_fanned, 0u);
    EXPECT_EQ(lcc_parallel.delta, lcc_reference.delta);
    test::expect_identical_counts(lcc_parallel.count, lcc_reference.count, "LCC");

    const auto amq = [&](net::RankPool& pool) {
        auto views = graph::distribute(instance(), make_partition(instance(), spec));
        net::Simulator sim(spec.num_ranks, spec.network, pool);
        test::preprocess_in_run(sim, views, spec.algorithm, spec.options);
        auto result = count_triangles_cetric_amq(sim, views, spec, AmqOptions{});
        return std::pair{std::move(result), fanned_windows(sim)};
    };
    const auto [amq_reference, amq_inline_fanned] = amq(inline_pool);
    const auto [amq_parallel, amq_fanned] = amq(helpers);
    EXPECT_EQ(amq_inline_fanned, 0u);
    EXPECT_GT(amq_fanned, 0u);
    EXPECT_EQ(amq_parallel.estimated_triangles, amq_reference.estimated_triangles);
    test::expect_identical_counts(amq_parallel.metrics, amq_reference.metrics, "AMQ");
}

TEST(ParallelDelivery, MergeKernelCellsMatchInlineRun) {
    // The merge kind marks each fixed row in a bitmap owned by the host
    // thread, so fanned-out start rounds and delivery windows mark one
    // bitmap per helper. Counts, Δ, enumerated triangles and every
    // simulated metric must still equal the inline run's.
    net::RankPool inline_pool(0);
    net::RankPool helpers(3);
    const auto merge_spec = [](Algorithm algorithm) {
        RunSpec spec = spec_for(algorithm);
        spec.options.intersect = seq::IntersectKind::kMerge;
        return spec;
    };
    const std::uint64_t expected = seq::count_edge_iterator(instance()).triangles;

    const RunSpec ditric = merge_spec(Algorithm::kDitric);
    const CountOutcome count_reference = run_count(inline_pool, ditric);
    const CountOutcome count_parallel = run_count(helpers, ditric);
    EXPECT_EQ(count_reference.count.triangles, expected);
    EXPECT_GT(count_parallel.fanned, 0u);
    test::expect_identical_counts(count_parallel.count, count_reference.count,
                                  "DITRIC merge count");

    const RunSpec cetric2 = merge_spec(Algorithm::kCetric2);
    const auto lcc = [&](net::RankPool& pool) {
        auto views = graph::distribute(instance(), make_partition(instance(), cetric2));
        net::Simulator sim(cetric2.num_ranks, cetric2.network, pool);
        test::preprocess_in_run(sim, views, cetric2.algorithm, cetric2.options);
        auto result = compute_distributed_lcc(sim, views, instance(), cetric2);
        return std::pair{std::move(result), fanned_windows(sim)};
    };
    const auto [lcc_reference, lcc_inline_fanned] = lcc(inline_pool);
    const auto [lcc_parallel, lcc_fanned] = lcc(helpers);
    EXPECT_EQ(lcc_inline_fanned, 0u);
    EXPECT_GT(lcc_fanned, 0u);
    EXPECT_EQ(lcc_parallel.delta, lcc_reference.delta);
    test::expect_identical_counts(lcc_parallel.count, lcc_reference.count,
                                  "CETRIC2 merge LCC");

    // Each finder rank appends to its own list; a rank's handlers run in
    // event order whichever thread runs them, so the lists match exactly.
    using Found = std::vector<std::vector<std::array<VertexId, 3>>>;
    const auto enumerate = [&](net::RankPool& pool) {
        Found found(kRanks);
        const TriangleSink sink = [&](Rank finder, VertexId v, VertexId u, VertexId w) {
            found[finder].push_back({v, u, w});
        };
        auto views = graph::distribute(instance(), make_partition(instance(), ditric));
        net::Simulator sim(ditric.num_ranks, ditric.network, pool);
        CountOutcome outcome;
        test::preprocess_in_run(sim, views, ditric.algorithm, ditric.options);
        outcome.count = dispatch_algorithm(sim, views, ditric, &sink);
        outcome.fanned = fanned_windows(sim);
        return std::pair{std::move(outcome), std::move(found)};
    };
    const auto [enum_reference, found_reference] = enumerate(inline_pool);
    const auto [enum_parallel, found_parallel] = enumerate(helpers);
    EXPECT_GT(enum_parallel.fanned, 0u);
    test::expect_identical_counts(enum_parallel.count, enum_reference.count,
                                  "DITRIC merge enumerate");
    EXPECT_EQ(found_parallel, found_reference);
    std::uint64_t listed = 0;
    for (const auto& per_rank : found_parallel) { listed += per_rank.size(); }
    EXPECT_EQ(listed, expected);
    EXPECT_EQ(seq::merge_marks_set_on_this_thread(), 0u);
}

TEST(ParallelDelivery, StreamingBatchesMatchInlineRun) {
    net::RankPool inline_pool(0);
    net::RankPool helpers(3);
    Config config;
    config.algorithm = Algorithm::kCetric;
    config.num_ranks = kRanks;
    const auto initial = test::engine_lcc(instance(), config.run_spec());
    // Batches large enough that some delivery window fans out.
    const auto batches =
        stream::make_churn_stream(instance(), 16384, 0.45, 4321).batches_of(8192);
    struct Outcome {
        std::vector<std::uint64_t> triangles;
        std::vector<std::uint64_t> delta;
        std::vector<net::RankMetrics> metrics;
        double time = 0.0;
        std::uint64_t fanned = 0;
    };
    // The counter's handlers intersect shipped rows and credit Δ through
    // the attached LCC's sink; the LCC's own flush absorbs per rank.
    const auto run = [&](net::RankPool& pool) {
        auto views = test::dynamic_views(instance(), config);
        net::Simulator sim(config.num_ranks, config.network, pool);
        stream::IncrementalCounter counter(sim, views, config.options,
                                           config.stream_indirect,
                                           initial.count.triangles);
        stream::IncrementalLcc lcc(sim, views, config.options, config.stream_indirect,
                                   initial.delta);
        lcc.attach(counter);
        Outcome outcome;
        for (const auto& batch : batches) {
            (void)counter.apply_batch(batch);
            (void)lcc.finish_batch();
            outcome.triangles.push_back(counter.triangles());
        }
        outcome.delta = lcc.delta();
        outcome.metrics.assign(sim.rank_metrics().begin(), sim.rank_metrics().end());
        outcome.time = sim.time();
        outcome.fanned = fanned_windows(sim);
        return outcome;
    };
    const Outcome reference = run(inline_pool);
    const Outcome parallel = run(helpers);
    EXPECT_EQ(reference.fanned, 0u);
    EXPECT_GT(parallel.fanned, 0u);
    EXPECT_EQ(parallel.triangles, reference.triangles);
    EXPECT_EQ(parallel.delta, reference.delta);
    EXPECT_TRUE(parallel.metrics == reference.metrics);
    EXPECT_EQ(parallel.time, reference.time);
}

}  // namespace
}  // namespace katric::core
