#include "core/dist_lcc.hpp"

#include <algorithm>
#include <utility>

#include "net/collectives.hpp"
#include "net/encoding.hpp"
#include "net/metrics.hpp"
#include "seq/lcc.hpp"
#include "util/assert.hpp"
#include "util/hash.hpp"

namespace katric::core {

LccDeltaState::LccDeltaState(graph::Partition1D partition)
    : partition_(std::move(partition)) {
    const Rank p = partition_.num_ranks();
    local_.resize(p);
    ghost_.resize(p);
    for (Rank r = 0; r < p; ++r) { local_[r].assign(partition_.size(r), 0); }
}

void LccDeltaState::credit(Rank finder, VertexId v, std::int64_t amount) {
    if (partition_.is_local(v, finder)) {
        local_[finder][v - partition_.begin(finder)] += amount;
    } else {
        ghost_[finder].add(v, amount);
    }
}

void LccDeltaState::GhostTable::add(VertexId v, std::int64_t amount) {
    if (4 * (used + 1) > 3 * entries.size()) { grow(); }
    const std::size_t mask = entries.size() - 1;
    for (std::size_t i = hash64(v) & mask;; i = (i + 1) & mask) {
        Entry& entry = entries[i];
        if (entry.vertex == v) {
            entry.amount += amount;
            return;
        }
        if (entry.vertex == graph::kInvalidVertex) {
            entry = {v, amount};
            ++used;
            return;
        }
    }
}

void LccDeltaState::GhostTable::grow() {
    std::vector<Entry> old(std::max<std::size_t>(16, 2 * entries.size()));
    old.swap(entries);
    used = 0;
    for (const Entry& entry : old) {
        if (entry.vertex != graph::kInvalidVertex) { add(entry.vertex, entry.amount); }
    }
}

std::vector<std::pair<VertexId, std::int64_t>> LccDeltaState::drain_ghosts(Rank r) {
    auto& table = ghost_[r];
    std::vector<std::pair<VertexId, std::int64_t>> pairs;
    pairs.reserve(table.used);
    for (auto& entry : table.entries) {
        if (entry.vertex == graph::kInvalidVertex) { continue; }
        pairs.emplace_back(entry.vertex, entry.amount);
        entry = {};
    }
    table.used = 0;
    std::sort(pairs.begin(), pairs.end());
    return pairs;
}

void LccDeltaState::absorb(Rank owner, VertexId v, std::int64_t amount) {
    KATRIC_ASSERT_MSG(partition_.is_local(v, owner),
                      "ghost Δ flushed to a non-owner rank");
    local_[owner][v - partition_.begin(owner)] += amount;
}

bool LccDeltaState::ghosts_empty() const noexcept {
    for (const auto& table : ghost_) {
        if (table.used != 0) { return false; }
    }
    return true;
}

std::int64_t LccDeltaState::local(Rank owner, VertexId v) const {
    KATRIC_ASSERT(partition_.is_local(v, owner));
    return local_[owner][v - partition_.begin(owner)];
}

std::vector<std::int64_t> LccDeltaState::assemble() const {
    std::vector<std::int64_t> global(partition_.num_vertices(), 0);
    for (Rank r = 0; r < partition_.num_ranks(); ++r) {
        for (VertexId i = 0; i < partition_.size(r); ++i) {
            KATRIC_ASSERT_MSG(local_[r][i] >= 0, "negative Δ accumulator at vertex "
                                                     << partition_.begin(r) + i);
            global[partition_.begin(r) + i] = local_[r][i];
        }
    }
    return global;
}

LccResult compute_distributed_lcc(net::Simulator& sim,
                                  const std::vector<DistGraph>& views,
                                  const graph::CsrGraph& global, const RunSpec& spec,
                                  const Preprocess& preprocess) {
    const Rank p = spec.num_ranks;
    KATRIC_ASSERT(views.size() == p);
    const auto& partition = views.front().partition();

    LccDeltaState state(partition);
    const TriangleSink sink = [&](Rank finder, VertexId v, VertexId u, VertexId w) {
        for (const VertexId x : {v, u, w}) { state.credit(finder, x, 1); }
    };

    LccResult result;
    result.count = dispatch_algorithm(sim, views, spec, &sink, preprocess);
    // Typed precondition failure (baseline algorithm with a sink): nothing
    // ran, so there is no Δ state to aggregate.
    if (result.count.error != RunError::kNone) { return result; }

    // Postprocessing: push ghost Δ values to their owners (pairs of
    // (g, zigzag Δ)), sorted for deterministic payloads.
    std::vector<std::vector<net::WordVec>> sends(p, std::vector<net::WordVec>(p));
    sim.run_phase("postprocess:push", [&](net::RankHandle& self) {
        const Rank r = self.rank();
        const auto pairs = state.drain_ghosts(r);
        self.charge_ops(pairs.size());
        for (const auto& [ghost, amount] : pairs) {
            auto& buffer = sends[r][partition.rank_of(ghost)];
            buffer.push_back(ghost);
            buffer.push_back(net::encode_signed(amount));
        }
    }, {});
    auto received = net::all_to_all(sim, std::move(sends), /*sparse=*/true,
                                    "postprocess:exchange");
    sim.run_phase("postprocess:absorb", [&](net::RankHandle& self) {
        const Rank r = self.rank();
        for (Rank src = 0; src < p; ++src) {
            const auto& payload = received[r][src];
            KATRIC_ASSERT(payload.size() % 2 == 0);
            for (std::size_t i = 0; i < payload.size(); i += 2) {
                state.absorb(r, payload[i], net::decode_signed(payload[i + 1]));
                self.charge_ops(1);
            }
        }
    }, {});
    KATRIC_ASSERT(state.ghosts_empty());
    result.postprocess_time = net::phase_time_matching(sim.phases(), "postprocess*");
    result.count.total_time = sim.time();

    // Host-side assembly of the global result (I/O, not simulated work).
    const auto signed_delta = state.assemble();
    result.delta.assign(signed_delta.begin(), signed_delta.end());
    result.lcc = seq::lcc_from_triangle_counts(global, result.delta);
    return result;
}

}  // namespace katric::core
