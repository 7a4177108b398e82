#include "core/tric_baseline.hpp"

#include <algorithm>
#include <vector>

#include "core/exchange.hpp"
#include "net/collectives.hpp"
#include "util/assert.hpp"

namespace katric::core {

namespace {

/// ID-oriented out-neighborhood: the suffix of the (ID-sorted) undirected
/// neighborhood past v itself. No ghost degrees required.
std::span<const VertexId> id_out(const DistGraph& view, VertexId v) {
    const auto nbrs = view.neighbors(v);
    const auto it = std::upper_bound(nbrs.begin(), nbrs.end(), v);
    return nbrs.subspan(static_cast<std::size_t>(it - nbrs.begin()));
}

}  // namespace

CountResult run_tric_style(net::Simulator& sim, const std::vector<DistGraph>& views,
                           const AlgorithmOptions& options) {
    const Rank p = sim.num_ranks();
    KATRIC_ASSERT(views.size() == p);
    CountResult result;

    std::vector<std::uint64_t> local_counts(p, 0);
    std::vector<std::uint64_t> global_counts(p, 0);

    // TriC never runs the preprocessing phase, so no hub index exists; the
    // dispatcher still honors the size-adaptive kernels.
    const auto kernels = [&](Rank r) {
        return seq::AdaptiveIntersect(options.intersect, nullptr,
                                      obs::rank_sink(options.kernel_stats, r));
    };

    // --- local pairs ------------------------------------------------------
    sim.run_phase("local", [&](net::RankHandle& self) {
        const Rank r = self.rank();
        const DistGraph& view = views[r];
        const auto isect = kernels(r);
        std::uint64_t found = 0;  // stored once: see run_local_phase
        for (VertexId v = view.first_local(); v < view.first_local() + view.num_local();
             ++v) {
            const auto out_v = id_out(view, v);
            const auto row_v = isect.fix(out_v, v);
            for (VertexId u : out_v) {
                if (!view.is_local(u)) { continue; }
                found += charged_intersect(self, row_v, id_out(view, u), u);
            }
        }
        local_counts[r] = found;
    }, {});

    // --- static buffer assembly (the all-up-front aggregation) -----------
    // Record format within a destination buffer: [v, len, elems...].
    std::vector<std::vector<net::WordVec>> sends(p, std::vector<net::WordVec>(p));
    sim.run_phase("global", [&](net::RankHandle& self) {
        const Rank r = self.rank();
        const DistGraph& view = views[r];
        std::uint64_t buffered = 0;
        ship_neighborhoods(
            self, view, [&](VertexId v) { return id_out(view, v); },
            [](VertexId v, std::span<const VertexId> out_v, net::WordVec& record) {
                record.push_back(v);
                record.push_back(out_v.size());
                record.insert(record.end(), out_v.begin(), out_v.end());
            },
            [&](Rank owner, const net::WordVec& record) {
                auto& buffer = sends[r][owner];
                buffer.insert(buffer.end(), record.begin(), record.end());
                buffered += record.size();
                // Never emptied before the exchange: the memory high-water
                // mark grows with the whole communication volume. May throw
                // OomError — the paper's observed TriC failure mode.
                self.note_buffered_words(buffered);
            });
    }, {});

    // --- one irregular all-to-all ------------------------------------------
    auto received = net::all_to_all(sim, std::move(sends), /*sparse=*/true, "global");

    // --- process received neighborhoods -------------------------------------
    sim.run_phase("global", [&](net::RankHandle& self) {
        const Rank r = self.rank();
        const DistGraph& view = views[r];
        const auto isect = kernels(r);
        std::uint64_t found = 0;
        for (Rank src = 0; src < p; ++src) {
            const auto& payload = received[r][src];
            std::size_t index = 0;
            while (index < payload.size()) {
                KATRIC_ASSERT(index + 2 <= payload.size());
                const auto length = static_cast<std::size_t>(payload[index + 1]);
                KATRIC_ASSERT(index + 2 + length <= payload.size());
                const auto a_v =
                    std::span<const std::uint64_t>(payload).subspan(index + 2, length);
                const auto row_v = isect.fix(a_v);
                for (const VertexId u : a_v) {
                    if (!view.is_local(u)) { continue; }
                    found += charged_intersect(self, row_v, id_out(view, u), u);
                }
                index += 2 + length;
            }
        }
        global_counts[r] = found;
    }, {});

    reduce_counts(sim, local_counts, global_counts, result);
    return result;
}

}  // namespace katric::core
