#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/dist_lcc.hpp"
#include "net/indirection.hpp"
#include "net/message_queue.hpp"
#include "net/simulator.hpp"
#include "stream/dynamic_graph.hpp"
#include "stream/incremental.hpp"

namespace katric::stream {

/// Incremental local-clustering-coefficient maintenance over edge batches —
/// the per-vertex sibling of IncrementalCounter's global count, combining
/// the paper's LCC attribution (Section IV-E: credit every found triangle
/// at all three vertices, ghost contributions pushed to owners) with
/// Tangwongsan et al.'s signed streaming attribution: delete-superstep
/// finds debit Δ, insert-superstep finds credit it, each weighted by the
/// same 6/k multiplicity correction as the global count, so per vertex a
/// triangle always contributes exactly ±6 sixths across its k finds.
///
/// State lives in a core::LccDeltaState (shared with the static
/// compute_distributed_lcc postprocess) in units of sixths. The transport
/// differs from the static path: instead of one postprocess all-to-all at
/// the end of the run, finish_batch() drains each rank's ghost
/// contributions through a dedicated epoch-stamped net::MessageQueue
/// exchange — one epoch per batch, so a Δ record can never bleed across a
/// batch boundary, mirroring the counter's own queues.
///
/// Degrees are read live from the mutating DynamicDistGraph views, so
/// LCC(v) = 2Δ(v)/(d_v(d_v−1)) stays exact as d_v changes; vertices with
/// d_v < 2 report LCC 0 (the convention of seq::lcc_from_triangle_counts).
class IncrementalLcc {
public:
    /// `initial_delta` is Δ(v) of the starting graph for every global
    /// vertex — core::compute_distributed_lcc(...).delta or the
    /// seq::compute_lcc_oracle reference. The views must be the same
    /// objects the attached IncrementalCounter mutates.
    IncrementalLcc(net::Simulator& sim, std::vector<DynamicDistGraph>& views,
                   const core::AlgorithmOptions& options, bool indirect,
                   const std::vector<std::uint64_t>& initial_delta);

    /// The attached counter's sink captures this object's address, so the
    /// tracker must stay put (and alive) while the counter runs.
    IncrementalLcc(const IncrementalLcc&) = delete;
    IncrementalLcc& operator=(const IncrementalLcc&) = delete;
    IncrementalLcc(IncrementalLcc&&) = delete;
    IncrementalLcc& operator=(IncrementalLcc&&) = delete;

    /// Installs this tracker's attribution sink on `counter`. Call once,
    /// before the first apply_batch; after every apply_batch call
    /// finish_batch() to commit the batch's Δ deltas. The tracker must
    /// outlive every apply_batch of the counter (see deleted moves).
    void attach(IncrementalCounter& counter);

    /// Flushes the batch's ghost Δ contributions to their owners (one
    /// epoch-stamped exchange on the simulator) and checks the per-vertex
    /// sixths invariant. Returns the flush's simulated seconds.
    double finish_batch();

    /// Owner-side per-vertex state, valid between finish_batch calls.
    [[nodiscard]] std::uint64_t delta_of(VertexId v) const;
    [[nodiscard]] double lcc_of(VertexId v) const;

    /// Host-side assembly of the full global vectors (I/O, not simulated).
    [[nodiscard]] std::vector<std::uint64_t> delta() const;
    [[nodiscard]] std::vector<double> lcc() const;

private:
    void deliver_record(net::RankHandle& self, std::span<const std::uint64_t> record);
    [[nodiscard]] Degree degree_of(VertexId v) const;

    net::Simulator* sim_;
    std::vector<DynamicDistGraph>* views_;
    core::LccDeltaState state_;  // units: sixths of a triangle
    std::unique_ptr<net::Router> router_;
    std::vector<net::MessageQueue> queues_;
    /// Per rank: owner-side slots credited since the last flush (may hold
    /// duplicates) — the scope of finish_batch's sixths-invariant check,
    /// keeping it O(touched) instead of O(n) per batch. Per rank because the
    /// ranks of a start round credit concurrently.
    std::vector<std::vector<VertexId>> touched_;
    std::uint64_t epoch_ = 0;
};

}  // namespace katric::stream
