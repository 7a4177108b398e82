// Kernel-comparison harness for the intersection subsystem: merge vs the
// kernels the adaptive dispatcher chooses between — galloping, SIMD
// block-merge, hub-bitmap probes and (at 1:1) the hub∩hub word-AND — swept
// across size ratios (1:1 … 1:1024) and densities (mean gap between
// consecutive IDs).
// Doubles as a correctness gate — every kernel must report the merge
// oracle's count on every configuration or the harness exits non-zero —
// and emits the same --json artifact format as the stream benches
// (snapshot schema: bench/BENCH_kernels.json).

#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "amq/bloom.hpp"
#include "bench_common.hpp"
#include "gen/proxies.hpp"
#include "net/message_queue.hpp"
#include "seq/bitmap_index.hpp"
#include "seq/edge_iterator.hpp"
#include "seq/intersection.hpp"
#include "seq/intersection_simd.hpp"
#include "util/random.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using katric::graph::VertexId;
using katric::seq::IntersectResult;

std::vector<VertexId> sorted_random(std::size_t size, std::uint64_t mean_gap,
                                    std::uint64_t seed) {
    katric::Xoshiro256 rng(seed);
    std::vector<VertexId> values(size);
    VertexId current = 0;
    for (auto& v : values) {
        current += 1 + rng.next_bounded(2 * mean_gap - 1);  // mean gap ≈ mean_gap
        v = current;
    }
    return values;
}

struct Measurement {
    IntersectResult result;
    double ns_per_call = 0.0;
};

/// Times `fn` (a callable returning IntersectResult) with enough
/// repetitions to cross `min_ms` of wall time, best of two rounds.
template <typename Fn>
Measurement measure(Fn&& fn, double min_ms) {
    Measurement m;
    m.result = fn();
    std::size_t reps = 1;
    double elapsed_ms = 0.0;
    while (true) {
        katric::WallTimer timer;
        std::uint64_t sink = 0;
        for (std::size_t r = 0; r < reps; ++r) { sink += fn().count; }
        elapsed_ms = timer.elapsed_ms();
        // The sink defeats dead-code elimination across the loop.
        if (sink == ~std::uint64_t{0}) { std::cerr << ""; }
        if (elapsed_ms >= min_ms || reps > (1u << 24)) { break; }
        reps *= 4;
    }
    m.ns_per_call = elapsed_ms * 1e6 / static_cast<double>(reps);
    return m;
}

/// Generic ns-per-call timer for the non-intersection microbenches (the
/// Bloom/queue/sequential-counter coverage the pre-harness bench had).
template <typename Fn>
double time_ns_per_call(Fn&& fn, double min_ms) {
    std::size_t reps = 1;
    while (true) {
        katric::WallTimer timer;
        for (std::size_t r = 0; r < reps; ++r) { fn(); }
        const double elapsed_ms = timer.elapsed_ms();
        if (elapsed_ms >= min_ms || reps > (1u << 24)) {
            return elapsed_ms * 1e6 / static_cast<double>(reps);
        }
        reps *= 4;
    }
}

}  // namespace

int main(int argc, char** argv) {
    using namespace katric;
    CliParser cli("bench_micro_kernels",
                  "intersection kernel comparison: merge|galloping|simd|bitmap|"
                  "bitmap-and across size ratios and densities");
    cli.option("large", "8192", "size of the large (hub) operand");
    cli.option("ratios", "1,4,16,64,256,1024", "size ratios large:small to sweep");
    cli.option("gaps", "2,16", "mean ID gaps (density = 1/gap) to sweep");
    cli.option("min-ms", "20", "minimum measured wall time per kernel (ms)");
    cli.option("seed", "42", "RNG seed");
    bench::add_json_option(cli);
    cli.flag("smoke", "CI preset: small sizes, short timings");
    cli.flag("scalar", "force the scalar fallbacks (as if AVX2 were absent)");
    if (!cli.parse(argc, argv)) { return 0; }

    if (cli.get_flag("scalar")) { seq::force_scalar_simd(true); }
    const bool smoke = cli.get_flag("smoke");
    const std::size_t large_size = smoke ? 2048 : cli.get_uint("large");
    const double min_ms = smoke ? 2.0 : cli.get_double("min-ms");
    const auto ratios = cli.get_uint_list("ratios");
    const auto gaps = cli.get_uint_list("gaps");
    const auto seed = cli.get_uint("seed");

    std::cout << "=== Intersection kernels ===\n"
              << "large = " << large_size << ", SIMD "
              << (seq::simd_available() ? "AVX2" : "scalar fallback")
              << ", time = wall ns per intersection call; ops = charged simulator "
                 "cost\n\n";

    Table table({"ratio", "gap", "small", "count", "kernel", "ns/call", "ops",
                 "speedup vs merge"});
    JsonWriter report;
    bool all_agree = true;
    double worst_bitmap_hub_speedup = -1.0;

    for (const auto gap : gaps) {
        // The large operand doubles as the hub row: indexed once, like a
        // rank's preprocessing would.
        const auto large = sorted_random(large_size, gap, seed);
        seq::HubBitmapIndex hubs;
        seq::HubBitmapIndex::Config config;
        config.degree_threshold = 1;
        config.max_hubs = 1;
        config.universe = large.back() + 1;
        const VertexId hub_id = 0;
        const std::vector<VertexId> candidates{hub_id};
        hubs.build(config, candidates, [&](VertexId) {
            return std::span<const VertexId>(large);
        });

        for (const auto ratio : ratios) {
            const std::size_t small_size =
                std::max<std::size_t>(1, large_size / std::max<std::uint64_t>(ratio, 1));
            // The small operand's gap scales with the ratio so both sets
            // spread over the same ID range — the realistic shape of a
            // low-degree row probed against a hub (clustered-prefix inputs
            // would let merge exit early and understate every kernel).
            const auto small =
                sorted_random(small_size, gap * std::max<std::uint64_t>(ratio, 1),
                              seed ^ (ratio * 77 + 1));

            struct Kernel {
                std::string name;
                Measurement m;
            };
            std::vector<Kernel> kernels;
            kernels.push_back({"merge", measure([&] {
                                   return seq::intersect_merge(small, large);
                               }, min_ms)});
            kernels.push_back({"galloping", measure([&] {
                                   return seq::intersect_simd_galloping(small, large);
                               }, min_ms)});
            kernels.push_back({"simd", measure([&] {
                                   return seq::intersect_simd_merge(small, large);
                               }, min_ms)});
            kernels.push_back({"bitmap", measure([&] {
                                   return hubs.intersect_count(hub_id, small);
                               }, min_ms)});
            if (ratio == 1) {
                // Equal-size case with both rows indexed: the hub∩hub
                // word-AND + popcount kernel the dispatcher picks when two
                // hubs meet.
                seq::HubBitmapIndex both;
                const VertexId other_id = 1;
                const std::vector<VertexId> ids{hub_id, other_id};
                seq::HubBitmapIndex::Config two = config;
                two.max_hubs = 2;
                two.universe = std::max(config.universe, small.back() + 1);
                both.build(two, ids, [&](VertexId id) {
                    return std::span<const VertexId>(id == hub_id ? large : small);
                });
                kernels.push_back({"bitmap-and", measure([&] {
                                       return both.intersect_hub_hub(hub_id, other_id);
                                   }, min_ms)});
            }

            const auto& merge = kernels.front().m;
            for (const auto& [name, m] : kernels) {
                if (m.result.count != merge.result.count) {
                    std::cerr << "FAIL: kernel " << name << " counted "
                              << m.result.count << " != merge oracle "
                              << merge.result.count << " (ratio 1:" << ratio
                              << ", gap " << gap << ")\n";
                    all_agree = false;
                }
                const double speedup =
                    m.ns_per_call > 0.0 ? merge.ns_per_call / m.ns_per_call : 0.0;
                // Hub-vs-anything evidence: the probe kernel on genuinely
                // smaller "anything" sides (ratio ≥ 4), plus the word-AND
                // kernel when two hubs meet at 1:1.
                if ((name == "bitmap" && ratio >= 4) || name == "bitmap-and") {
                    worst_bitmap_hub_speedup =
                        worst_bitmap_hub_speedup < 0.0
                            ? speedup
                            : std::min(worst_bitmap_hub_speedup, speedup);
                }
                table.row()
                    .cell("1:" + std::to_string(ratio))
                    .cell(static_cast<std::uint64_t>(gap))
                    .cell(static_cast<std::uint64_t>(small_size))
                    .cell(m.result.count)
                    .cell(name)
                    .cell(m.ns_per_call, 1)
                    .cell(m.result.ops)
                    .cell(speedup, 2);
                report.begin_row()
                    .field("large", static_cast<std::uint64_t>(large_size))
                    .field("small", static_cast<std::uint64_t>(small_size))
                    .field("ratio", static_cast<std::uint64_t>(ratio))
                    .field("gap", static_cast<std::uint64_t>(gap))
                    .field("kernel", name)
                    .field("simd", seq::simd_available() ? std::string("avx2")
                                                         : std::string("scalar"))
                    .field("count", m.result.count)
                    .field("ops", m.result.ops)
                    .field("ns_per_call", m.ns_per_call)
                    .field("speedup_vs_merge", speedup);
            }
        }
    }

    table.print(std::cout);

    // --- other hot-path microbenches (Bloom, message queue, counters) ----
    std::cout << "\n";
    Table other({"bench", "ns/call"});
    const auto other_row = [&](const std::string& name, double ns) {
        other.row().cell(name).cell(ns, 1);
        report.begin_row().field("bench", name).field("ns_per_call", ns);
    };
    {
        amq::BloomFilter filter(1 << 16, 5, 1);
        std::uint64_t key = 0;
        other_row("bloom-insert",
                  time_ns_per_call([&] { filter.insert(++key); }, min_ms));
        for (std::uint64_t k = 0; k < 4096; ++k) { filter.insert(k); }
        std::uint64_t probe_key = 0;
        volatile bool hit = false;
        other_row("bloom-query", time_ns_per_call(
                                     [&] { hit = filter.contains(++probe_key); },
                                     min_ms));
        (void)hit;
    }
    {
        // Message-queue post path: one phase posting a fixed record burst.
        constexpr std::size_t kPosts = 4096;
        net::Simulator sim(4, net::NetworkConfig{});
        const net::DirectRouter router;
        net::MessageQueue queue(1 << 20, router, 1);
        const std::uint64_t record[8] = {1, 2, 3, 4, 5, 6, 7, 8};
        WallTimer timer;
        sim.run_phase(
            "bench",
            [&](net::RankHandle& self) {
                if (self.rank() != 0) { return; }
                for (std::size_t i = 0; i < kPosts; ++i) {
                    queue.post(self, 1 + (i % 3), record);
                }
                queue.flush(self);
            },
            [](net::RankHandle&, net::Rank, int, std::span<const std::uint64_t>) {});
        other_row("queue-post", timer.elapsed_ms() * 1e6 / kPosts);
    }
    if (!smoke) {
        const auto proxy = gen::build_proxy("live-journal");
        other_row("seq-count-proxy", time_ns_per_call(
                                         [&] {
                                             volatile auto t =
                                                 seq::count_edge_iterator(proxy)
                                                     .triangles;
                                             (void)t;
                                         },
                                         min_ms));
    }
    other.print(std::cout);

    report.write(cli.get_string("json"));
    std::cout << "\nworst-case bitmap speedup over merge (hub vs anything): "
              << worst_bitmap_hub_speedup << "×\n"
              << "Expected shape: bitmap ≥2× on every hub intersection; galloping "
                 "wins with ratio; SIMD wins the balanced merges.\n";
    if (!all_agree) { return 1; }
    return 0;
}
