// Kernel-comparison harness for the intersection subsystem: the reference
// merge and the merge kind's mark-and-probe vs the kernels the adaptive
// dispatcher chooses between — galloping, block merge (the adaptive fixed
// row's host path, on the balanced pairs it serves), hub-bitmap probes and
// (at 1:1) the hub∩hub word-AND — swept across large-operand sizes, size
// ratios (1:1 … 1:1024) and densities (mean gap between consecutive IDs).
// Doubles as a correctness gate — every kernel must report the merge
// oracle's count, merge-probe also its ops and block-merge
// intersect_block_merge's ops, on every configuration and every partner or
// the harness exits non-zero — and emits its rows as a --json artifact
// (snapshot schema: bench/BENCH_kernels.json).
//
// Each configuration intersects one small row with a pool of distinct
// large partners of the same size and density, and a timed call rotates
// through them, so a branchy kernel cannot learn one pair's branch
// pattern across repetitions. ns/call is the mean over the pool; count and
// ops are the first partner's.

#include <algorithm>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "amq/bloom.hpp"
#include "bench_common.hpp"
#include "gen/proxies.hpp"
#include "net/message_queue.hpp"
#include "seq/adaptive_intersect.hpp"
#include "seq/bitmap_index.hpp"
#include "seq/edge_iterator.hpp"
#include "seq/intersection.hpp"
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

/// Distinct large partners per configuration: their working set (16 ×
/// 64 KiB at 8192 elements) outgrows the first-level caches, and their
/// combined branch pattern outgrows a branch predictor's history.
constexpr std::size_t kPartners = 16;

struct Measurement {
    std::vector<IntersectResult> results;  ///< one per partner
    double ns_per_call = 0.0;
};

/// Times `fn(k)` (a callable returning the IntersectResult of partner k)
/// with enough repetitions to cross `min_ms` of wall time, rotating k over
/// the kPartners partners.
template <typename Fn>
Measurement measure(Fn&& fn, double min_ms) {
    Measurement m;
    for (std::size_t k = 0; k < kPartners; ++k) { m.results.push_back(fn(k)); }
    std::size_t reps = kPartners;
    double elapsed_ms = 0.0;
    while (true) {
        katric::WallTimer timer;
        std::uint64_t sink = 0;
        std::size_t k = 0;
        for (std::size_t r = 0; r < reps; ++r) {
            sink += fn(k).count;
            k = k + 1 == kPartners ? 0 : k + 1;
        }
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

/// The CPU model from /proc/cpuinfo ("unknown" where it is absent), so a
/// snapshot names the host its timings came from.
std::string cpu_model() {
    std::ifstream cpuinfo("/proc/cpuinfo");
    std::string line;
    while (std::getline(cpuinfo, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos && colon + 2 <= line.size()) {
                return line.substr(colon + 2);
            }
        }
    }
    return "unknown";
}

}  // namespace

int main(int argc, char** argv) {
    using namespace katric;
    CliParser cli("bench_micro_kernels",
                  "intersection kernel comparison: merge|merge-probe|galloping|"
                  "block-merge|bitmap|bitmap-and across sizes, size ratios and "
                  "densities");
    cli.option("large", "8192", "sizes of the large (hub) operand to sweep");
    cli.option("ratios", "1,4,16,64,256,1024", "size ratios large:small to sweep");
    cli.option("gaps", "2,16", "mean ID gaps (density = 1/gap) to sweep");
    cli.option("min-ms", "20", "minimum measured wall time per kernel (ms)");
    cli.option("seed", "42", "RNG seed");
    bench::add_json_option(cli);
    cli.flag("smoke", "CI preset: small sizes, short timings");
    if (!cli.parse(argc, argv)) { return 0; }

    const bool smoke = cli.get_flag("smoke");
    const auto large_sizes =
        smoke ? std::vector<std::uint64_t>{64, 2048} : cli.get_uint_list("large");
    const double min_ms = smoke ? 2.0 : cli.get_double("min-ms");
    const auto ratios = cli.get_uint_list("ratios");
    const auto gaps = cli.get_uint_list("gaps");
    const auto seed = cli.get_uint("seed");

    std::cout << "=== Intersection kernels ===\n"
              << "time = wall ns per intersection call, mean over " << kPartners
              << " distinct large partners; count, ops = the first partner's "
                 "(ops = charged simulator cost)\n\n";

    Table table({"large", "ratio", "gap", "small", "count", "kernel", "ns/call", "ops",
                 "speedup vs merge"});
    JsonWriter report;
    report.begin_row()
        .field("host", cpu_model())
        .field("hardware_concurrency",
               static_cast<std::uint64_t>(std::thread::hardware_concurrency()))
        .field("compiler", std::string(__VERSION__))
        .field("partners", static_cast<std::uint64_t>(kPartners));
    bool all_agree = true;
    double worst_bitmap_hub_speedup = -1.0;

    const seq::AdaptiveIntersect merge_kind(seq::IntersectKind::kMerge);
    const seq::AdaptiveIntersect adaptive_kind(seq::IntersectKind::kAdaptive);
    for (const auto large_size : large_sizes) {
        for (const auto gap : gaps) {
            // The large partners double as the hub rows (partner k is hub
            // k): indexed once, like a rank's preprocessing would. Partner
            // 0 uses `seed` itself.
            std::vector<std::vector<VertexId>> larges;
            std::vector<VertexId> hub_ids;
            VertexId universe = 0;
            for (std::size_t k = 0; k < kPartners; ++k) {
                larges.push_back(sorted_random(large_size, gap, seed + k * 0x9e37));
                hub_ids.push_back(k);
                universe = std::max(universe, larges.back().back() + 1);
            }
            seq::HubBitmapIndex hubs;
            seq::HubBitmapIndex::Config config;
            config.degree_threshold = 1;
            config.max_hubs = kPartners;
            config.universe = universe;
            hubs.build(config, hub_ids, [&](VertexId id) {
                return std::span<const VertexId>(larges[id]);
            });

            for (const auto ratio : ratios) {
                const std::size_t small_size = std::max<std::size_t>(
                    1, large_size / std::max<std::uint64_t>(ratio, 1));
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
                kernels.push_back({"merge", measure([&](std::size_t k) {
                                       return seq::intersect_merge(small, larges[k]);
                                   }, min_ms)});
                // The merge kind's host kernel: mark `small`, probe the
                // partner, clear. Fixing inside the timed call is the worst
                // case — in the counting loops one fix serves every partner
                // of the row.
                kernels.push_back({"merge-probe", measure([&](std::size_t k) {
                                       return merge_kind.fix(small).count(larges[k]);
                                   }, min_ms)});
                kernels.push_back({"galloping", measure([&](std::size_t k) {
                                       return seq::intersect_galloping(small, larges[k]);
                                   }, min_ms)});
                // The adaptive kind's block-merge branch as the counting loops
                // run it: one fixed row (marked at its first partner) probed
                // per call. Only where the dispatcher picks it: balanced pairs.
                if (!seq::probe_search_pays_off(small.size(), large_size)) {
                    const auto row = adaptive_kind.fix(small);
                    kernels.push_back({"block-merge", measure([&](std::size_t k) {
                                           return row.count(larges[k]);
                                       }, min_ms)});
                }
                // The slot lookup stays in the timed call: the dispatcher
                // pays that hash probe per call too.
                kernels.push_back({"bitmap", measure([&](std::size_t k) {
                                       return hubs.intersect_count(
                                           *hubs.lookup(hub_ids[k], larges[k]), small);
                                   }, min_ms)});
                if (ratio == 1) {
                    // Equal-size case with both rows indexed: the hub∩hub
                    // word-AND + popcount kernel the dispatcher picks when two
                    // hubs meet. The small row is hub kPartners.
                    seq::HubBitmapIndex both;
                    std::vector<VertexId> ids = hub_ids;
                    const VertexId small_id = kPartners;
                    ids.push_back(small_id);
                    seq::HubBitmapIndex::Config all = config;
                    all.max_hubs = kPartners + 1;
                    all.universe = std::max(config.universe, small.back() + 1);
                    both.build(all, ids, [&](VertexId id) {
                        return std::span<const VertexId>(id == small_id ? small
                                                                         : larges[id]);
                    });
                    kernels.push_back(
                        {"bitmap-and", measure([&](std::size_t k) {
                             return both.intersect_hub_hub(
                                 *both.lookup(hub_ids[k], larges[k]),
                                 *both.lookup(small_id, small));
                         }, min_ms)});
                }

                const auto& merge = kernels.front().m;
                for (const auto& [name, m] : kernels) {
                    for (std::size_t k = 0; k < kPartners; ++k) {
                        const IntersectResult& result = m.results[k];
                        const IntersectResult& oracle = merge.results[k];
                        if (result.count != oracle.count) {
                            std::cerr << "FAIL: kernel " << name << " counted "
                                      << result.count << " != merge oracle " << oracle.count
                                      << " (ratio 1:" << ratio << ", gap " << gap
                                      << ", partner " << k << ")\n";
                            all_agree = false;
                        }
                        // The fixed rows must charge their reference kernel's ops.
                        std::uint64_t reference_ops = result.ops;
                        if (name == "merge-probe") { reference_ops = oracle.ops; }
                        if (name == "block-merge") {
                            reference_ops = seq::intersect_block_merge(small, larges[k]).ops;
                        }
                        if (result.ops != reference_ops) {
                            std::cerr << "FAIL: " << name << " charged " << result.ops
                                      << " ops != its reference kernel's " << reference_ops
                                      << " (large " << large_size << ", ratio 1:" << ratio
                                      << ", gap " << gap << ", partner " << k << ")\n";
                            all_agree = false;
                        }
                    }
                    const IntersectResult& first = m.results.front();
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
                        .cell(static_cast<std::uint64_t>(large_size))
                        .cell("1:" + std::to_string(ratio))
                        .cell(static_cast<std::uint64_t>(gap))
                        .cell(static_cast<std::uint64_t>(small_size))
                        .cell(first.count)
                        .cell(name)
                        .cell(m.ns_per_call, 1)
                        .cell(first.ops)
                        .cell(speedup, 2);
                    report.begin_row()
                        .field("large", static_cast<std::uint64_t>(large_size))
                        .field("small", static_cast<std::uint64_t>(small_size))
                        .field("ratio", static_cast<std::uint64_t>(ratio))
                        .field("gap", static_cast<std::uint64_t>(gap))
                        .field("kernel", name)
                        .field("count", first.count)
                        .field("ops", first.ops)
                        .field("ns_per_call", m.ns_per_call)
                        .field("speedup_vs_merge", speedup);
                }
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
                 "wins with ratio; block-merge wins the balanced merges.\n";
    if (!all_agree) { return 1; }
    return 0;
}
