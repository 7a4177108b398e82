#pragma once

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "core/algorithm.hpp"
#include "error.hpp"
#include "net/indirection.hpp"
#include "net/message_queue.hpp"
#include "net/simulator.hpp"
#include "stream/dynamic_graph.hpp"
#include "stream/edge_stream.hpp"

namespace katric::stream {

/// What one batch cost and changed — the streaming analogue of
/// core::CountResult, reported per batch instead of per run.
struct BatchStats {
    std::size_t batch_index = 0;
    std::size_t events = 0;           ///< raw events in the batch
    std::size_t net_inserts = 0;      ///< effective insertions after folding
    std::size_t net_deletes = 0;      ///< effective deletions after folding
    std::int64_t delta = 0;           ///< triangle-count change
    std::uint64_t triangles = 0;      ///< global count after the batch
    double seconds = 0.0;             ///< simulated seconds for the batch's phases
    double lcc_seconds = 0.0;         ///< simulated seconds of the Δ ghost flush
                                      ///< (0 unless LCC maintenance is attached)
    std::uint64_t messages_sent = 0;  ///< total over PEs, this batch only
    std::uint64_t words_sent = 0;     ///< total over PEs, this batch only
    /// kNone on success. core::RunError::kInvalidInput when the batch failed
    /// validation (an event's vertex outside the partition's universe, a
    /// non-finite event time, or events out of time order): the batch was
    /// rejected atomically — no adjacency changed, no superstep ran, every
    /// stat above is zero and the triangle count is the pre-batch value.
    Error error;
};

/// A batch folded against the current edge set: its effective deletions
/// and insertions, each canonical (u < v) and ascending.
struct NetEffect {
    std::vector<graph::Edge> deletes;
    std::vector<graph::Edge> inserts;

    friend bool operator==(const NetEffect&, const NetEffect&) = default;
};

/// Folds a batch against the views' current edge sets: the last event per
/// edge wins, and self-loops and no-ops vanish. Events must be time-ordered
/// and inside the vertex universe (asserted; IncrementalCounter::apply_batch
/// rejects such batches first). A stable sort on the canonical edge groups
/// each edge's events in time order; each group costs one presence lookup
/// at owner(u).
[[nodiscard]] NetEffect fold_batch(const EdgeBatch& batch,
                                   const std::vector<DynamicDistGraph>& views);

/// The contiguous run of `sorted` (ascending by u) whose u `rank` owns —
/// two binary searches against the rank's range, not an owner lookup per
/// edge.
[[nodiscard]] std::span<const graph::Edge> owned_slice(std::span<const graph::Edge> sorted,
                                                       const graph::Partition1D& partition,
                                                       graph::Rank rank);

/// One phase's changed-edge set as each endpoint's changed neighbors, an
/// ascending span per vertex: a flagged row or an intersection reads its
/// vertex's span once and walks it beside the ascending row, so no
/// per-element lookup remains. Refilled per phase without freeing its
/// storage.
class ChangedEdges {
public:
    /// Replaces the set's contents with `edges` (canonical, u < v, strictly
    /// ascending — the order fold_batch produces).
    void assign(std::span<const graph::Edge> edges);

    /// The other endpoints of x's changed edges, ascending; empty when no
    /// changed edge touches x.
    [[nodiscard]] std::span<const graph::VertexId> neighbors(graph::VertexId x) const;

private:
    std::vector<graph::Edge> reversed_;     // assign's scratch: every (v, u), sorted
    std::vector<graph::VertexId> sources_;  // ascending endpoints
    // sources_[i]'s span is targets_[offsets_[i], offsets_[i + 1]).
    std::vector<std::size_t> offsets_;
    std::vector<graph::VertexId> targets_;
};

/// Signed per-vertex triangle attribution hook: invoked at the finding rank
/// once per (triangle, changed-edge) find for each of the triangle's three
/// vertices, with the same 6/k-sixths weight that flows into the global
/// count — negated for delete-superstep finds. Summed over a triangle's k
/// finds, every incident vertex receives exactly ±6 sixths, so consumers
/// that aggregate by owner recover exact signed per-vertex Δ counts. As with
/// core::TriangleSink, different finding ranks may call it concurrently.
using StreamTriangleSink =
    std::function<void(net::RankHandle& self, graph::VertexId vertex,
                       std::int64_t signed_sixths)>;

/// Incremental distributed triangle-count maintenance (Tangwongsan, Pavan &
/// Tirthapura's batched streaming model on this repo's simulated machine).
///
/// Per batch, the counter folds the events into net effective deletions D
/// and insertions I against the current edge set, then runs two supersteps:
///
///   1. "stream/delete" — every effective deletion {u,v} is processed by
///      owner(u) (u < v) *before* any adjacency changes: the triangles of
///      the old graph through {u,v} are counted by intersecting N(u) and
///      N(v). A triangle whose three edges contain k ≥ 1 deleted edges is
///      found once per deleted edge, so each find contributes 6/k sixths
///      (k = 1 + [del {u,w}] + [del {v,w}]) and the global sum is divisible
///      by 6 — integer-exact multiplicity correction, no fractions.
///   2. "stream/apply" — all ranks apply deletions and insertions to their
///      local rows, post ghost-degree notifications for changed local
///      vertices, then count the new graph's triangles through each
///      effective insertion with the same 6/k correction.
///
/// Cross-rank neighborhood access routes through net::MessageQueue (the
/// paper's δ-buffered asynchronous all-to-all, Section IV-A, with optional
/// grid indirection, Section IV-B) in epoch-stamped mode: each superstep is
/// one epoch, so a record can never bleed across a batch boundary. The
/// direction of each exchange is degree-driven: owner(u) ships flagged
/// N(u) when deg(u) is at most the ghost-degree estimate of v, and
/// otherwise pulls flagged N(v) — the smaller neighborhood travels.
class IncrementalCounter {
public:
    /// The counter mutates `views` (adjacency deltas) and drives `sim`;
    /// both must outlive it. `initial_triangles` is the static count of the
    /// graph the views were built from. options supplies δ
    /// (buffer_threshold_words, 0 = auto O(|E_i|)); `indirect` enables the
    /// grid router for the stream queues.
    IncrementalCounter(net::Simulator& sim, std::vector<DynamicDistGraph>& views,
                       const core::AlgorithmOptions& options, bool indirect,
                       std::uint64_t initial_triangles);

    /// Ingests one batch; returns its stats. The batch is validated before
    /// anything mutates: an event referencing a vertex outside the
    /// partition's universe, a non-finite event time, or events out of time
    /// order, reject the whole batch with a typed BatchStats::error
    /// (RunError::kInvalidInput) and change nothing. No-op events
    /// (self-loops, re-inserts, deletes of absent edges, insert/delete pairs
    /// cancelling within the batch) are valid and folded away — the
    /// streaming model's best-effort contract.
    BatchStats apply_batch(const EdgeBatch& batch);

    [[nodiscard]] std::uint64_t triangles() const noexcept { return triangles_; }

    /// Installs (or clears, with an empty function) the per-vertex
    /// attribution hook; IncrementalLcc::attach is the intended caller.
    void set_triangle_sink(StreamTriangleSink sink) { sink_ = std::move(sink); }

private:
    /// What one rank's start function and handlers write, on cache lines of
    /// its own: the ranks of a start round or delivery window run on
    /// different host threads.
    struct alignas(64) RankState {
        std::uint64_t sixths = 0;  ///< units of 1/6 triangle
        net::WordVec record;       ///< the ship record or local operand in the making
        std::vector<graph::VertexId> touched;  ///< local rows the batch changed
        std::vector<Rank> owners;              ///< recipients of one degree note
    };

    void start_epoch(std::uint64_t epoch);
    /// Flag-annotated local neighborhood of x after `prefix`, built in the
    /// rank's reused record buffer — the shared wire/operand form of ship
    /// records and local intersections. Valid until the rank's next call.
    [[nodiscard]] std::span<const std::uint64_t> flagged_row(
        net::RankHandle& self, graph::VertexId x, std::initializer_list<std::uint64_t> prefix);
    /// Posts the counting work for one changed edge owned by this rank:
    /// local intersection, ship, or pull (degree-driven).
    void post_edge_work(net::RankHandle& self, const graph::Edge& edge);
    /// Intersects a flag-annotated neighborhood of `a` with the local
    /// neighborhood of `b` through seq::AdaptiveIntersect, charging its ops,
    /// and accumulates 6/k sixths per common neighbor.
    void intersect_and_accumulate(net::RankHandle& self, graph::VertexId a,
                                  graph::VertexId b,
                                  std::span<const std::uint64_t> flagged_a);
    void deliver_record(net::RankHandle& self, std::span<const std::uint64_t> record);
    /// Drains per-rank sixth-accumulators; asserts divisibility by 6.
    [[nodiscard]] std::uint64_t take_triangle_sixths();

    net::Simulator* sim_;
    std::vector<DynamicDistGraph>* views_;
    core::AlgorithmOptions options_;
    std::unique_ptr<net::Router> router_;
    std::vector<net::MessageQueue> queues_;
    std::vector<RankState> ranks_;
    StreamTriangleSink sink_;      // optional per-vertex attribution
    std::int64_t phase_sign_ = 1;  // −1 in "stream/delete", +1 in "stream/apply"

    /// The batch's effective deletions and insertions, and the one of them
    /// in flight (deleted_ during "stream/delete", inserted_ during
    /// "stream/apply"). Stored once for all ranks; lookups only ever use
    /// edges incident to the querying rank's local vertices, which the rank
    /// knows natively.
    ChangedEdges deleted_;
    ChangedEdges inserted_;
    const ChangedEdges* current_changed_ = nullptr;

    std::uint64_t triangles_;
    std::size_t batch_index_ = 0;
    std::uint64_t epoch_ = 0;
};

}  // namespace katric::stream
