#include "core/havoqgt_baseline.hpp"

#include <algorithm>
#include <vector>

#include "core/exchange.hpp"
#include "util/assert.hpp"
#include "util/bits.hpp"

namespace katric::core {

namespace {

/// Closing-edge probe in the local undirected adjacency; charges a binary
/// search worth of comparisons.
bool probe_edge(net::RankHandle& self, const DistGraph& view, VertexId u, VertexId w) {
    const auto nbrs = view.neighbors(u);
    self.charge_ops(katric::ceil_log2(nbrs.size() + 1) + 1);
    return std::binary_search(nbrs.begin(), nbrs.end(), w);
}

}  // namespace

CountResult run_havoqgt_style(net::Simulator& sim, const std::vector<DistGraph>& views,
                              const AlgorithmOptions& options) {
    const Rank p = sim.num_ranks();
    KATRIC_ASSERT(views.size() == p);
    CountResult result;

    std::vector<std::uint64_t> counts(p, 0);
    // HavoqGT aggregates messages at compute-node level before rerouting
    // (Section III-A2); modeled by the topology-dependent two-level router.
    auto queue = make_queue(views, options, Routing::kTwoLevel, kTagWedge);

    auto deliver = [&](net::RankHandle& self, std::span<const std::uint64_t> record) {
        KATRIC_ASSERT(record.size() == 2);
        const Rank r = self.rank();
        const DistGraph& view = views[r];
        const VertexId u = record[0];
        const VertexId w = record[1];
        KATRIC_ASSERT(view.is_local(u));
        if (probe_edge(self, view, u, w)) { ++counts[r]; }
    };

    queue.run_phase(
        sim, "global",
        [&](net::RankHandle& self) {
            const Rank r = self.rank();
            const DistGraph& view = views[r];
            for (VertexId v = view.first_local();
                 v < view.first_local() + view.num_local(); ++v) {
                const auto out_v = view.out_neighbors(v);
                // All wedges {u,w} ⊆ N⁺(v): check the closing edge at the
                // owner of u. Each triangle has exactly one vertex with both
                // others in its out-neighborhood, so it is found once.
                for (std::size_t i = 0; i < out_v.size(); ++i) {
                    for (std::size_t j = i + 1; j < out_v.size(); ++j) {
                        self.charge_ops(1);
                        const VertexId u = out_v[i];
                        const VertexId w = out_v[j];
                        if (view.is_local(u)) {
                            if (probe_edge(self, view, u, w)) { ++counts[r]; }
                        } else {
                            const std::uint64_t query[2] = {u, w};
                            queue.post(self, view.partition().rank_of(u),
                                       std::span<const std::uint64_t>(query));
                        }
                    }
                }
            }
        },
        deliver);

    // Every find is a global-phase wedge check.
    reduce_counts(sim, std::vector<std::uint64_t>(p, 0), counts, result);
    return result;
}

}  // namespace katric::core
