// obs::MetricsRegistry and obs::KernelStats — the counter/histogram/summary
// registry the --metrics surface exports, the kernel dispatch-mix recorder
// AdaptiveIntersect feeds, and the Engine integration: a metrics-enabled
// session must report per-query latency percentiles, per-rank comm volumes,
// a non-trivial dispatch mix, and a per-phase Report breakdown.

#include "obs/metrics_registry.hpp"

#include <gtest/gtest.h>

#include "engine.hpp"
#include "gen/rgg2d.hpp"
#include "obs/kernel_stats.hpp"
#include "support/test_graphs.hpp"

namespace katric {
namespace {

TEST(KernelSizeBucket, LogBucketsWithSaturation) {
    using obs::kernel_size_bucket;
    EXPECT_EQ(kernel_size_bucket(0), 0u);
    EXPECT_EQ(kernel_size_bucket(1), 1u);
    EXPECT_EQ(kernel_size_bucket(2), 2u);
    EXPECT_EQ(kernel_size_bucket(3), 2u);
    EXPECT_EQ(kernel_size_bucket(4), 3u);
    EXPECT_EQ(kernel_size_bucket(1023), 10u);
    EXPECT_EQ(kernel_size_bucket(1024), 11u);
    // Saturates in the last bucket instead of indexing out of range.
    EXPECT_EQ(kernel_size_bucket(std::size_t{1} << 60), obs::KernelStats::kBuckets - 1);
}

TEST(KernelSizeBucket, LabelsMatchBucketRanges) {
    EXPECT_EQ(obs::kernel_size_bucket_label(0), "0");
    EXPECT_EQ(obs::kernel_size_bucket_label(1), "[1,1]");
    EXPECT_EQ(obs::kernel_size_bucket_label(2), "[2,3]");
    EXPECT_EQ(obs::kernel_size_bucket_label(3), "[4,7]");
}

TEST(KernelStats, RecordTotalsAndMerge) {
    obs::KernelStats a;
    a.record(obs::KernelChoice::kMerge, 5);
    a.record(obs::KernelChoice::kMerge, 6);
    a.record(obs::KernelChoice::kGalloping, 1000);
    a.hub_hits = 3;
    EXPECT_EQ(a.total(), 3u);
    EXPECT_EQ(a.total(obs::KernelChoice::kMerge), 2u);
    EXPECT_EQ(a.total(obs::KernelChoice::kGalloping), 1u);
    EXPECT_EQ(a.total(obs::KernelChoice::kBinary), 0u);

    obs::KernelStats b;
    b.record(obs::KernelChoice::kMerge, 5);
    b.hub_misses = 1;
    b.merge(a);
    EXPECT_EQ(b.total(obs::KernelChoice::kMerge), 3u);
    EXPECT_EQ(b.total(), 4u);
    EXPECT_EQ(b.hub_hits, 3u);
    EXPECT_DOUBLE_EQ(b.hub_hit_rate(), 0.75);

    b.reset();
    EXPECT_EQ(b.total(), 0u);
    EXPECT_DOUBLE_EQ(b.hub_hit_rate(), 0.0);  // no probes: rate is 0, not NaN

    const auto rendered = a.to_string();
    EXPECT_NE(rendered.find("merge: 2"), std::string::npos);
    EXPECT_NE(rendered.find("galloping: 1"), std::string::npos);
    EXPECT_NE(rendered.find("hub bitmap"), std::string::npos);
}

TEST(MetricsRegistry, CountersGaugesAndLookup) {
    obs::MetricsRegistry registry;
    EXPECT_TRUE(registry.empty());
    registry.count("a.b");
    registry.count("a.b", 4);
    registry.gauge("g", 2.5);
    EXPECT_FALSE(registry.empty());
    EXPECT_EQ(registry.counter("a.b"), 5u);
    EXPECT_EQ(registry.counter("missing"), 0u);
    EXPECT_EQ(registry.histogram("missing"), nullptr);
    EXPECT_EQ(registry.summary("missing"), nullptr);
}

TEST(MetricsRegistry, SummariesExposeExactPercentiles) {
    obs::MetricsRegistry registry;
    for (int i = 1; i <= 100; ++i) {
        registry.observe_latency("q.latency", static_cast<double>(i));
    }
    const auto* summary = registry.summary("q.latency");
    ASSERT_NE(summary, nullptr);
    EXPECT_EQ(summary->count(), 100u);
    EXPECT_DOUBLE_EQ(summary->percentile(0.5), 50.0);
    EXPECT_DOUBLE_EQ(summary->percentile(0.99), 99.0);
}

TEST(MetricsRegistry, SnapshotIsFlatAndDeterministic) {
    obs::MetricsRegistry registry;
    registry.count("z.counter", 7);
    registry.gauge("a.gauge", 1.5);
    registry.observe_size("h.sizes", 3);
    registry.observe_size("h.sizes", 300);
    registry.observe_latency("s.lat", 0.25);

    const auto rows = registry.snapshot();
    ASSERT_FALSE(rows.empty());
    const auto value_of = [&](const std::string& name) -> const double* {
        for (const auto& row : rows) {
            if (row.name == name) { return &row.value; }
        }
        return nullptr;
    };
    ASSERT_NE(value_of("z.counter"), nullptr);
    EXPECT_DOUBLE_EQ(*value_of("z.counter"), 7.0);
    ASSERT_NE(value_of("a.gauge"), nullptr);
    EXPECT_DOUBLE_EQ(*value_of("a.gauge"), 1.5);
    ASSERT_NE(value_of("h.sizes.count"), nullptr);
    EXPECT_DOUBLE_EQ(*value_of("h.sizes.count"), 2.0);
    ASSERT_NE(value_of("s.lat.count"), nullptr);
    ASSERT_NE(value_of("s.lat.p50"), nullptr);
    ASSERT_NE(value_of("s.lat.p99"), nullptr);
    EXPECT_DOUBLE_EQ(*value_of("s.lat.p50"), 0.25);

    // Deterministic: two snapshots of the same registry are identical.
    const auto again = registry.snapshot();
    ASSERT_EQ(rows.size(), again.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
        EXPECT_EQ(rows[i].name, again[i].name);
        EXPECT_DOUBLE_EQ(rows[i].value, again[i].value);
    }

    const auto rendered = registry.to_string();
    EXPECT_NE(rendered.find("z.counter"), std::string::npos);
}

// --- Engine integration ---------------------------------------------------

TEST(EngineMetrics, DisabledByDefaultAndZeroSurface) {
    const auto g = test::complete_graph(16);
    Config config;
    config.num_ranks = 2;
    Engine engine(g, config);
    EXPECT_EQ(engine.observability(), nullptr);
    EXPECT_TRUE(engine.metrics_summary().empty());
    // Per-phase aggregation still lands in the Report (it needs no obs).
    const auto report = engine.count();
    EXPECT_FALSE(report.phases.empty());
}

TEST(EngineMetrics, MetricsEngineRecordsLatencyCommAndDispatchMix) {
    const auto g = gen::generate_rgg2d(256, gen::rgg2d_radius_for_degree(256, 8.0), 7);
    Config config;
    config.num_ranks = 4;
    config.metrics = true;
    config.options.intersect = seq::IntersectKind::kAdaptive;
    Engine engine(g, config);
    ASSERT_NE(engine.observability(), nullptr);
    EXPECT_TRUE(engine.observability()->metrics_enabled());
    EXPECT_FALSE(engine.observability()->tracing_enabled());

    const auto first = engine.count();
    const auto second = engine.count();
    EXPECT_EQ(first.count.triangles, second.count.triangles);

    const auto& registry = engine.observability()->registry();
    EXPECT_EQ(registry.counter("query.count"), 2u);
    const auto* latency = registry.summary("query.count.latency_seconds");
    ASSERT_NE(latency, nullptr);
    EXPECT_EQ(latency->count(), 2u);
    EXPECT_GE(latency->percentile(0.99), latency->percentile(0.5));
    const auto* sim_time = registry.summary("query.count.sim_seconds");
    ASSERT_NE(sim_time, nullptr);
    EXPECT_GT(sim_time->percentile(0.5), 0.0);
    EXPECT_GT(registry.counter("comm.words_sent"), 0u);
    EXPECT_GT(registry.counter("comm.messages_sent"), 0u);
    // Every superstep with traffic delivers in at least one window; whether
    // any fanned out depends on the host, so only the bound is pinned.
    EXPECT_GT(registry.counter("host.deliver_windows"), 0u);
    EXPECT_LE(registry.counter("host.deliver_windows_fanned"),
              registry.counter("host.deliver_windows"));
    // The constructor's preprocessing pass is observed as its own kind.
    EXPECT_EQ(registry.counter("query.preprocess"), 1u);
    const auto* per_rank = registry.histogram("comm.rank_words_sent");
    ASSERT_NE(per_rank, nullptr);
    // One sample per rank per observed run: the build plus two queries.
    EXPECT_EQ(per_rank->total(), 3u * 4u);

    // The adaptive dispatcher reported which kernels actually fired.
    EXPECT_GT(engine.observability()->kernel_stats().total(), 0u);
    const auto summary = engine.metrics_summary();
    EXPECT_NE(summary.find("query.count.latency_seconds"), std::string::npos);
    EXPECT_NE(summary.find("kernel dispatch"), std::string::npos);

    // With details recorded, the per-phase breakdown carries comm volumes.
    bool any_phase_words = false;
    for (const auto& phase : second.phases) {
        any_phase_words = any_phase_words || phase.words_sent > 0;
    }
    EXPECT_TRUE(any_phase_words);
}

TEST(EngineMetrics, WarmMonitorLatencyPercentiles) {
    const auto g = gen::generate_rgg2d(192, gen::rgg2d_radius_for_degree(192, 8.0), 3);
    Config config;
    config.num_ranks = 4;
    config.metrics = true;
    config.reuse_preprocessing = true;
    Engine engine(g, config);
    ASSERT_NE(engine.observability(), nullptr);
    for (int i = 0; i < 5; ++i) { (void)engine.count(); }

    const auto& registry = engine.observability()->registry();
    // Construction observed the preprocessing build as its own kind.
    EXPECT_EQ(registry.counter("query.preprocess"), 1u);
    const auto* latency = registry.summary("query.count.latency_seconds");
    ASSERT_NE(latency, nullptr);
    EXPECT_EQ(latency->count(), 5u);
    EXPECT_GT(latency->percentile(0.5), 0.0);
    EXPECT_GE(latency->percentile(0.99), latency->percentile(0.5));
}

TEST(EngineMetrics, MetricsOnlyEnginesDoNotShareState) {
    const auto g = test::complete_graph(12);
    Config config;
    config.num_ranks = 2;
    config.metrics = true;
    Engine first(g, config);
    Engine second(g, config);
    ASSERT_NE(first.observability(), nullptr);
    ASSERT_NE(second.observability(), nullptr);
    // No trace path: each session gets its own registry (path sharing is a
    // tracing concern).
    EXPECT_NE(first.observability(), second.observability());
    (void)first.count();
    EXPECT_EQ(first.observability()->registry().counter("query.count"), 1u);
    EXPECT_EQ(second.observability()->registry().counter("query.count"), 0u);
}

}  // namespace
}  // namespace katric
