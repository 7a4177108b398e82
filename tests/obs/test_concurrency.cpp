// Thread-safety of the observability layer — the contract Engine::serve
// leans on: N serve workers finishing queries against ONE shared
// MetricsRegistry / Tracer / Observability must lose no samples and corrupt
// no state. These tests are deterministic on totals (every recorded sample
// is accounted for after join) and double as the TSan target: build with
// -fsanitize=thread and any unguarded access in the obs layer trips.

#include <gtest/gtest.h>

#include <span>
#include <string>
#include <thread>
#include <vector>

#include "net/simulator.hpp"
#include "obs/kernel_stats.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/observability.hpp"
#include "obs/trace.hpp"

namespace katric::obs {
namespace {

constexpr int kThreads = 4;
constexpr int kOpsPerThread = 500;

TEST(ObsConcurrency, RegistryLosesNoSamplesUnderContention) {
    MetricsRegistry registry;
    std::vector<std::thread> recorders;
    recorders.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        recorders.emplace_back([&registry, t] {
            for (int i = 0; i < kOpsPerThread; ++i) {
                registry.count("ops");
                registry.count("ops.thread." + std::to_string(t));
                registry.gauge("last_thread", static_cast<double>(t));
                registry.observe_size("sizes", static_cast<std::uint64_t>(i));
                registry.observe_latency("latency", 1e-6 * (i + 1));
            }
        });
    }
    // A concurrent reader: snapshot()/counter()/to_string() must be safe
    // while recorders are live (serve sessions poll stats mid-flight).
    std::thread reader([&registry] {
        for (int i = 0; i < 50; ++i) {
            (void)registry.snapshot();
            (void)registry.counter("ops");
            (void)registry.to_string();
            (void)registry.empty();
        }
    });
    for (auto& thread : recorders) { thread.join(); }
    reader.join();

    const auto total = static_cast<std::uint64_t>(kThreads) * kOpsPerThread;
    EXPECT_EQ(registry.counter("ops"), total);
    for (int t = 0; t < kThreads; ++t) {
        EXPECT_EQ(registry.counter("ops.thread." + std::to_string(t)),
                  static_cast<std::uint64_t>(kOpsPerThread));
    }
    // Post-join (quiescent) reads through the node pointers.
    ASSERT_NE(registry.histogram("sizes"), nullptr);
    EXPECT_EQ(registry.histogram("sizes")->total(), total);
    ASSERT_NE(registry.summary("latency"), nullptr);
    EXPECT_EQ(registry.summary("latency")->count(), total);
}

/// Runs one superstep with traffic on `sim`: the finished query every
/// recorder below appends, reading the machine concurrently through const.
void run_query(net::Simulator& sim) {
    sim.run_phase(
        "local",
        [](net::RankHandle& rank) {
            rank.charge_ops(100);
            rank.send((rank.rank() + 1) % rank.size(), {1, 2, 3});
        },
        [](net::RankHandle&, net::Rank, int, std::span<const std::uint64_t>) {});
}

TEST(ObsConcurrency, TracerAppendsAllSpansFromConcurrentRecorders) {
    net::Simulator sim(2, net::NetworkConfig{});
    run_query(sim);
    Tracer single;
    single.record_query("count#0", sim);
    const std::size_t spans_per_query = single.spans().size();
    ASSERT_GT(spans_per_query, 0u);

    Tracer tracer;
    std::vector<std::thread> recorders;
    recorders.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        recorders.emplace_back([&tracer, &sim, t] {
            for (int i = 0; i < kOpsPerThread; ++i) {
                const auto label = "count#" + std::to_string(t) + "." + std::to_string(i);
                tracer.record_query(label, sim);
            }
        });
    }
    // to_json() while recorders are live — the write path of a trace flush
    // racing a still-running worker.
    std::thread reader([&tracer] {
        for (int i = 0; i < 20; ++i) { (void)tracer.to_json(); }
    });
    for (auto& thread : recorders) { thread.join(); }
    reader.join();

    // Quiescent now: every query's spans landed, exactly once.
    const auto queries = static_cast<std::size_t>(kThreads) * kOpsPerThread;
    EXPECT_EQ(tracer.num_queries(), queries);
    EXPECT_EQ(tracer.spans().size(), queries * spans_per_query);
    const auto json = tracer.to_json();
    EXPECT_NE(json.find("count#0.0"), std::string::npos);
}

TEST(ObsConcurrency, ObservabilityMergesEveryQuerysKernelStats) {
    // The serve-worker finish path: each "query" records into a private
    // KernelStats, then observe_query merges it under the record mutex —
    // modelled here exactly as Engine::finalize drives it.
    const auto obs = Observability::acquire(/*metrics=*/true, /*trace_path=*/"");
    ASSERT_NE(obs, nullptr);
    ASSERT_TRUE(obs->metrics_enabled());
    net::Simulator sim(2, net::NetworkConfig{});
    run_query(sim);
    KernelStats per_query;
    per_query.record(KernelChoice::kMerge, 4);
    per_query.record(KernelChoice::kGalloping, 64);

    std::vector<std::thread> workers;
    workers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        workers.emplace_back([&obs, &sim, &per_query] {
            for (int i = 0; i < kOpsPerThread; ++i) {
                obs->observe_query("count", sim, 1e-5 * (i + 1), &per_query);
            }
        });
    }
    for (auto& thread : workers) { thread.join(); }

    const auto total = static_cast<std::uint64_t>(kThreads) * kOpsPerThread;
    EXPECT_EQ(obs->registry().counter("query.count"), total);
    const auto* latency = obs->registry().summary("query.count.latency_seconds");
    ASSERT_NE(latency, nullptr);
    EXPECT_EQ(latency->count(), total);
    EXPECT_GT(latency->percentile(0.99), 0.0);
    EXPECT_EQ(obs->kernel_stats().total(), 2 * total);
    EXPECT_EQ(obs->kernel_stats().total(KernelChoice::kGalloping), total);
}

}  // namespace
}  // namespace katric::obs
