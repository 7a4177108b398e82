#include "core/approx.hpp"

#include <cmath>
#include <utility>
#include <vector>

#include "amq/bloom.hpp"
#include "core/exchange.hpp"
#include "graph/builder.hpp"
#include "net/collectives.hpp"
#include "util/assert.hpp"
#include "util/hash.hpp"
#include "util/random.hpp"

namespace katric::core {

namespace {

/// Wire format: [v, kind, …] with kind 0 = raw ID list (exact) and
/// kind 1 = Bloom filter [v, 1, inserted, num_bits, num_hashes, bits…].
constexpr std::uint64_t kKindRawList = 0;
constexpr std::uint64_t kKindBloom = 1;
constexpr std::size_t kBloomHeaderWords = 5;

}  // namespace

AmqResult count_triangles_cetric_amq(net::Simulator& sim,
                                     const std::vector<DistGraph>& views,
                                     const RunSpec& spec, const AmqOptions& amq,
                                     const Preprocess& preprocess) {
    const Rank p = spec.num_ranks;
    KATRIC_ASSERT(views.size() == p);

    AmqResult result;

    apply_preprocessing(sim, views, spec.options, preprocess);

    // --- exact local phase: CETRIC's, always single-threaded --------------
    AlgorithmOptions local_options = spec.options;
    local_options.threads = 1;
    const auto local_counts =
        run_local_phase(sim, views, local_options, /*expanded=*/true, nullptr);
    charge_contraction(sim, views);

    // --- approximate global phase ----------------------------------------
    const auto router = make_router(p, /*indirect=*/false);
    auto queues = make_queues(views, spec.options, *router, kTagCount);
    std::vector<double> estimates(p, 0.0);

    auto deliver = [&](net::RankHandle& self, std::span<const std::uint64_t> record) {
        const Rank r = self.rank();
        const DistGraph& view = views[r];
        const seq::AdaptiveIntersect isect(spec.options.intersect, view.hub_index(),
                                           obs::rank_sink(spec.options.kernel_stats, r));
        KATRIC_ASSERT(record.size() >= 2);
        const VertexId v = record[0];
        const std::uint64_t kind = record[1];
        const auto gi = view.ghost_index(v);
        KATRIC_ASSERT_MSG(gi.has_value(), "AMQ record from non-adjacent vertex " << v);
        // The local receivers of v's neighborhood are exactly the local
        // vertices u with v ≺ u adjacent to v — the rewired ghost list.
        if (kind == kKindRawList) {
            const auto row_v = isect.fix(record.subspan(2), v);
            for (const VertexId u : view.ghost_out_neighbors(*gi)) {
                estimates[r] += static_cast<double>(
                    charged_intersect(self, row_v, view.contracted_out_neighbors(u), u));
            }
            return;
        }
        KATRIC_ASSERT(kind == kKindBloom);
        KATRIC_ASSERT(record.size() >= kBloomHeaderWords);
        const std::uint64_t inserted = record[2];
        const std::uint64_t num_bits = record[3];
        const auto num_hashes = static_cast<std::uint32_t>(record[4]);
        // Probed in place: the view checks the word count before any probe.
        const amq::BloomView filter(record.subspan(kBloomHeaderWords), num_bits,
                                    num_hashes, amq.seed ^ katric::hash64(v), inserted);
        const double f = filter.expected_fpr();
        for (const VertexId u : view.ghost_out_neighbors(*gi)) {
            const auto a_u = view.contracted_out_neighbors(u);
            // One charge per probed key, in key order: the simulated clock
            // is a sum of doubles, so one batched charge would round apart.
            for (std::size_t i = 0; i < a_u.size(); ++i) { self.charge_ops(num_hashes); }
            const std::uint64_t positives = filter.count(a_u);
            const auto q = static_cast<double>(a_u.size());
            if (amq.truthful && f < 1.0) {
                estimates[r] += (static_cast<double>(positives) - q * f) / (1.0 - f);
            } else {
                estimates[r] += static_cast<double>(positives);
            }
        }
    };

    sim.run_phase(
        "global",
        [&](net::RankHandle& self) {
            const Rank r = self.rank();
            const DistGraph& view = views[r];
            ship_neighborhoods(
                self, view, [&](VertexId v) { return view.contracted_out_neighbors(v); },
                [&](VertexId v, std::span<const VertexId> a_v, net::WordVec& record) {
                    auto filter = amq::BloomFilter::with_fpr(
                        a_v.size(), amq.target_fpr, amq.seed ^ katric::hash64(v));
                    // Adaptive encoding: the exact ID list wins whenever it
                    // is no longer than the filter + its header.
                    const bool raw_cheaper =
                        amq.adaptive
                        && a_v.size() + 2 <= filter.words().size() + kBloomHeaderWords;
                    record.push_back(v);
                    if (raw_cheaper) {
                        record.push_back(kKindRawList);
                        record.insert(record.end(), a_v.begin(), a_v.end());
                        return;
                    }
                    for (const VertexId w : a_v) { filter.insert(w); }
                    self.charge_ops(a_v.size() * filter.num_hashes());
                    record.push_back(kKindBloom);
                    record.push_back(filter.inserted());
                    record.push_back(filter.num_bits());
                    record.push_back(filter.num_hashes());
                    record.insert(record.end(), filter.words().begin(),
                                  filter.words().end());
                },
                [&](Rank owner, const net::WordVec& record) {
                    queues[r].post(self, owner, record);
                });
        },
        [&](net::RankHandle& self, Rank /*src*/, int tag,
            std::span<const std::uint64_t> payload) {
            KATRIC_ASSERT(tag == kTagCount);
            queues[self.rank()].handle(self, payload, deliver);
        },
        [&](net::RankHandle& self) { queues[self.rank()].flush(self); });

    // --- reduce -------------------------------------------------------------
    // Fixed-point micro-triangles keep the network reduce integral.
    std::vector<std::uint64_t> per_rank(p, 0);
    for (Rank r = 0; r < p; ++r) {
        result.exact_type12 += local_counts[r];
        result.estimated_type3 += estimates[r];
        per_rank[r] = local_counts[r]
                      + static_cast<std::uint64_t>(
                            std::llround(std::max(0.0, estimates[r]) * 1e3))
                            / 1000;
    }
    (void)net::allreduce_sum(sim, per_rank, "reduce");
    result.estimated_triangles =
        static_cast<double>(result.exact_type12) + result.estimated_type3;
    fill_metrics(sim, result.metrics);
    result.metrics.triangles = static_cast<std::uint64_t>(
        std::llround(std::max(0.0, result.estimated_triangles)));
    result.metrics.local_phase_triangles = result.exact_type12;
    return result;
}

graph::CsrGraph sparsify_doulion(const graph::CsrGraph& global, double keep_prob,
                                 std::uint64_t seed) {
    KATRIC_ASSERT(keep_prob > 0.0 && keep_prob <= 1.0);
    katric::Xoshiro256 rng(seed);
    graph::EdgeList kept;
    for (graph::VertexId v = 0; v < global.num_vertices(); ++v) {
        for (graph::VertexId u : global.neighbors(v)) {
            if (v < u && rng.next_bool(keep_prob)) { kept.add(v, u); }
        }
    }
    return graph::build_undirected(std::move(kept), global.num_vertices());
}

graph::CsrGraph sparsify_colorful(const graph::CsrGraph& global, std::uint64_t num_colors,
                                  std::uint64_t seed) {
    KATRIC_ASSERT(num_colors >= 1);
    auto color = [&](graph::VertexId v) { return katric::hash64_seeded(v, seed) % num_colors; };
    graph::EdgeList kept;
    for (graph::VertexId v = 0; v < global.num_vertices(); ++v) {
        for (graph::VertexId u : global.neighbors(v)) {
            if (v < u && color(v) == color(u)) { kept.add(v, u); }
        }
    }
    return graph::build_undirected(std::move(kept), global.num_vertices());
}

}  // namespace katric::core
