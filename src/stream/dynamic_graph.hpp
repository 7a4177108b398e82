#pragma once

#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "graph/csr_graph.hpp"
#include "graph/mutable_adjacency.hpp"
#include "graph/partition.hpp"
#include "graph/types.hpp"
#include "seq/bitmap_index.hpp"

namespace katric::stream {

using graph::CsrGraph;
using graph::Degree;
using graph::EdgeId;
using graph::Partition1D;
using graph::Rank;
using graph::VertexId;

/// The per-rank state of a 1-D partitioned *dynamic* graph — the streaming
/// sibling of graph::DistGraph. Each rank owns the contiguous vertex range
/// V_i of a fixed partition and stores the full, ID-sorted neighborhood of
/// every local vertex in a MutableAdjacency, so local degrees stay exact as
/// deltas arrive (Arifuzzaman et al.'s bookkeeping discipline: an edge
/// update {u,v} touches exactly owner(u) and owner(v)).
///
/// Ghost degrees — degrees of remote endpoints of cut edges — cannot be
/// derived locally. They are seeded exactly at construction (a real system
/// runs one initial ghost-degree exchange, Algorithm 3's
/// exchange_ghost_degree) and then maintained *approximately* by
/// degree-delta notifications posted after each batch. They only steer the
/// ship-vs-pull direction choice of the incremental counter, so staleness
/// costs volume, never correctness.
class DynamicDistGraph {
public:
    /// Builds rank `rank`'s view of `global`, reading only V_rank's
    /// neighborhoods, and seeds exact ghost degrees for every current ghost.
    [[nodiscard]] static DynamicDistGraph from_global(const CsrGraph& global,
                                                      const Partition1D& partition,
                                                      Rank rank);

    [[nodiscard]] Rank rank() const noexcept { return rank_; }
    [[nodiscard]] const Partition1D& partition() const noexcept { return partition_; }
    [[nodiscard]] VertexId first_local() const noexcept { return partition_.begin(rank_); }
    [[nodiscard]] VertexId num_local() const noexcept { return partition_.size(rank_); }
    [[nodiscard]] bool is_local(VertexId v) const noexcept {
        return partition_.is_local(v, rank_);
    }

    [[nodiscard]] Degree degree(VertexId local_v) const;
    [[nodiscard]] std::span<const VertexId> neighbors(VertexId local_v) const;
    [[nodiscard]] bool has_edge(VertexId local_u, VertexId v) const;

    /// Number of stored half-edges |E_i| — the streaming analogue of the
    /// paper's per-PE input size, used for the buffer threshold δ.
    [[nodiscard]] EdgeId num_local_half_edges() const noexcept {
        return adjacency_.total_entries();
    }

    /// Inserts/erases v in local_u's neighborhood only (the other endpoint's
    /// owner maintains the reverse direction). Returns false on no-op.
    bool insert_half_edge(VertexId local_u, VertexId v);
    bool erase_half_edge(VertexId local_u, VertexId v);

    /// Last known degree of a remote vertex, or nullopt if no notification
    /// has ever arrived (a vertex that became a ghost mid-stream).
    [[nodiscard]] std::optional<Degree> ghost_degree(VertexId v) const;
    void note_ghost_degree(VertexId v, Degree degree);

    /// Distinct remote ranks owning at least one current neighbor of
    /// local_v — the recipients of a degree-delta notification for it.
    [[nodiscard]] std::vector<Rank> neighbor_ranks(VertexId local_v) const;

    [[nodiscard]] const graph::MutableAdjacency& adjacency() const noexcept {
        return adjacency_;
    }

    // --- hub bitmaps (adaptive streaming kernel) --------------------------
    /// Turns on hub bitmap maintenance over the local rows and builds the
    /// initial index. From here on every insert/erase_half_edge marks its
    /// row dirty; rebuild_dirty_hubs() re-materializes exactly the dirty
    /// rows. Returns the build ops (for simulator charging).
    std::uint64_t enable_hub_bitmaps(Degree degree_threshold,
                                     std::size_t max_hubs = 256);
    /// nullptr until enable_hub_bitmaps() ran.
    [[nodiscard]] const seq::HubBitmapIndex* hub_index() const noexcept {
        return hub_index_.get();
    }
    /// Dirty-set refresh after a batch's adjacency deltas; returns charged
    /// ops. No-op (0) when hub bitmaps are disabled or nothing changed.
    std::uint64_t rebuild_dirty_hubs();

private:
    [[nodiscard]] std::size_t local_index(VertexId v) const;

    Partition1D partition_;
    Rank rank_ = 0;
    graph::MutableAdjacency adjacency_;
    std::unordered_map<VertexId, Degree> ghost_degrees_;
    std::unique_ptr<seq::HubBitmapIndex> hub_index_;
};

/// Reassembles the current global graph from every rank's local rows — each
/// undirected edge {u,v} (u < v) is emitted once, by owner(u). The test and
/// bench bridge to the static algorithms (full recount).
[[nodiscard]] CsrGraph materialize_global(const std::vector<DynamicDistGraph>& views);

}  // namespace katric::stream
