#include "stream/incremental_lcc.hpp"

#include "core/exchange.hpp"
#include "net/encoding.hpp"
#include "util/assert.hpp"

namespace katric::stream {

IncrementalLcc::IncrementalLcc(net::Simulator& sim, std::vector<DynamicDistGraph>& views,
                               const core::AlgorithmOptions& options, bool indirect,
                               const std::vector<std::uint64_t>& initial_delta)
    : sim_(&sim),
      views_(&views),
      state_(views.front().partition()),
      touched_(static_cast<std::size_t>(sim.num_ranks())) {
    KATRIC_ASSERT(static_cast<Rank>(views.size()) == sim.num_ranks());
    const auto& partition = state_.partition();
    KATRIC_ASSERT_MSG(initial_delta.size() == partition.num_vertices(),
                      "initial Δ vector must cover the vertex universe");
    // Seed each owner's accumulator with the static count, in sixths — the
    // unit every subsequent signed contribution arrives in.
    for (Rank r = 0; r < partition.num_ranks(); ++r) {
        for (VertexId v = partition.begin(r); v < partition.end(r); ++v) {
            state_.credit(r, v, 6 * static_cast<std::int64_t>(initial_delta[v]));
        }
    }
    // Same router and δ policy as the counter's queues: long-lived, with
    // epochs (one per batch flush) marking the boundaries.
    router_ = core::make_router(sim.num_ranks(), indirect);
    queues_ = core::make_queues(views, options, *router_, core::kTagStreamLcc,
                                /*epoch_stamped=*/true);
}

void IncrementalLcc::attach(IncrementalCounter& counter) {
    counter.set_triangle_sink(
        [this](net::RankHandle& self, graph::VertexId vertex, std::int64_t sixths) {
            if (state_.partition().is_local(vertex, self.rank())) {
                touched_[self.rank()].push_back(vertex);
            }
            state_.credit(self.rank(), vertex, sixths);
        });
}

void IncrementalLcc::deliver_record(net::RankHandle& self,
                                    std::span<const std::uint64_t> record) {
    KATRIC_ASSERT_MSG(record.size() == 2, "malformed Δ-flush record");
    touched_[self.rank()].push_back(record[0]);
    state_.absorb(self.rank(), record[0], net::decode_signed(record[1]));
    self.charge_ops(1);
}

double IncrementalLcc::finish_batch() {
    ++epoch_;
    for (auto& queue : queues_) { queue.begin_epoch(epoch_); }
    const double before = sim_->time();
    sim_->run_phase(
        "stream/lcc-flush",
        [&](net::RankHandle& self) {
            const Rank r = self.rank();
            const auto pairs = state_.drain_ghosts(r);
            self.charge_ops(pairs.size());
            for (const auto& [ghost, sixths] : pairs) {
                // A ghost whose credits cancelled within the batch (churn
                // that gave and took the same triangles) nets to zero —
                // nothing to tell the owner.
                if (sixths == 0) { continue; }
                const net::WordVec record{ghost, net::encode_signed(sixths)};
                queues_[r].post(self, state_.partition().rank_of(ghost), record);
            }
        },
        [&](net::RankHandle& self, Rank /*src*/, int /*tag*/,
            std::span<const std::uint64_t> payload) {
            queues_[self.rank()].handle(self, payload,
                                        [&](net::RankHandle& s,
                                            std::span<const std::uint64_t> record) {
                                            deliver_record(s, record);
                                        });
        },
        [&](net::RankHandle& self) {
            auto& queue = queues_[self.rank()];
            if (queue.has_buffered()) { queue.flush(self); }
        });
    KATRIC_ASSERT_MSG(state_.ghosts_empty(), "Δ flush left ghost residue");
    // Committed accumulators must be whole, non-negative triangles: each
    // triangle contributes exactly ±6 sixths per incident vertex across its
    // k finds, so any other residue means a lost or double-counted find.
    // Only slots credited this batch can have changed, so the check is
    // O(touched), not O(n).
    for (Rank r = 0; r < touched_.size(); ++r) {
        for (const auto v : touched_[r]) {
            const auto value = state_.local(r, v);
            KATRIC_ASSERT_MSG(value >= 0 && value % 6 == 0,
                              "per-vertex sixths out of balance at " << v << ": "
                                                                     << value);
        }
        touched_[r].clear();
    }
    return sim_->time() - before;
}

Degree IncrementalLcc::degree_of(VertexId v) const {
    return (*views_)[state_.partition().rank_of(v)].degree(v);
}

std::uint64_t IncrementalLcc::delta_of(VertexId v) const {
    const auto sixths = state_.local(state_.partition().rank_of(v), v);
    KATRIC_ASSERT(sixths >= 0 && sixths % 6 == 0);
    return static_cast<std::uint64_t>(sixths / 6);
}

double IncrementalLcc::lcc_of(VertexId v) const {
    const auto d = degree_of(v);
    if (d < 2) { return 0.0; }
    return 2.0 * static_cast<double>(delta_of(v))
           / (static_cast<double>(d) * static_cast<double>(d - 1));
}

std::vector<std::uint64_t> IncrementalLcc::delta() const {
    const auto sixths = state_.assemble();
    std::vector<std::uint64_t> result(sixths.size());
    for (std::size_t v = 0; v < sixths.size(); ++v) {
        KATRIC_ASSERT(sixths[v] % 6 == 0);
        result[v] = static_cast<std::uint64_t>(sixths[v] / 6);
    }
    return result;
}

std::vector<double> IncrementalLcc::lcc() const {
    std::vector<double> result(state_.partition().num_vertices(), 0.0);
    for (VertexId v = 0; v < result.size(); ++v) { result[v] = lcc_of(v); }
    return result;
}

}  // namespace katric::stream
