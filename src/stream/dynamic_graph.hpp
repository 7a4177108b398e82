#pragma once

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "graph/csr_graph.hpp"
#include "graph/distributed_graph.hpp"
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
/// every local vertex as one mutable row (O(log d) membership, O(d) sorted
/// insert/erase), so local degrees stay exact as deltas arrive (Arifuzzaman
/// et al.'s bookkeeping discipline: an edge update {u,v} touches exactly
/// owner(u) and owner(v)).
///
/// Ghost degrees — degrees of remote endpoints of cut edges — cannot be
/// derived locally. They are copied from the static view's ghost-degree
/// exchange (Algorithm 3's exchange_ghost_degree) at construction and then
/// maintained *approximately* by degree-delta notifications posted after
/// each batch. They only steer the ship-vs-pull direction choice of the
/// incremental counter, so staleness costs volume, never correctness.
///
/// The static view stays a separate type: its hub index covers oriented rows
/// over a fixed ghost set, this one's covers full rows while its ghost set
/// grows mid-stream.
class DynamicDistGraph {
public:
    /// Rank view.rank()'s dynamic view, copied from its static view: every
    /// local row, and the exchanged degree of every ghost (requires
    /// view.ghost_degrees_ready()). Reads no global graph.
    [[nodiscard]] static DynamicDistGraph from_view(const graph::DistGraph& view);

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
    [[nodiscard]] EdgeId num_local_half_edges() const noexcept { return num_half_edges_; }

    /// Inserts/erases v in local_u's neighborhood only (the other endpoint's
    /// owner maintains the reverse direction). Returns false on no-op.
    bool insert_half_edge(VertexId local_u, VertexId v);
    bool erase_half_edge(VertexId local_u, VertexId v);

    /// Last known degree of a remote vertex, or nullopt if no notification
    /// has ever arrived (a vertex that became a ghost mid-stream).
    [[nodiscard]] std::optional<Degree> ghost_degree(VertexId v) const;
    /// Records a received degree note. Both words come off the wire, so
    /// they are checked before they touch the table: v ≥ n, a local v, or
    /// the degree 2^64 − 1 (the table's "never noted" mark) throws
    /// assertion_error.
    void note_ghost_degree(VertexId v, Degree degree);

    /// Distinct remote ranks owning at least one current neighbor of
    /// local_v, ascending — the recipients of a degree-delta notification
    /// for it. Written into `ranks` (cleared first), so a caller can reuse
    /// one buffer: owners never decrease along the ID-sorted row, so one
    /// forward cursor over the partition boundaries finds them.
    void neighbor_ranks(VertexId local_v, std::vector<Rank>& ranks) const;

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
    std::vector<std::vector<VertexId>> rows_;  // ID-sorted; row i is first_local() + i
    EdgeId num_half_edges_ = 0;                // Σ row sizes
    /// Last noted degree of every remote vertex, indexed by vertex ID; a
    /// sentinel until the first note. One word per global vertex buys an
    /// index instead of a hash probe per note.
    std::vector<Degree> ghost_degrees_;
    std::unique_ptr<seq::HubBitmapIndex> hub_index_;
};

/// Reassembles the current global graph from every rank's local rows — each
/// undirected edge {u,v} (u < v) is emitted once, by owner(u). The test and
/// bench bridge to the static algorithms (full recount).
[[nodiscard]] CsrGraph materialize_global(const std::vector<DynamicDistGraph>& views);

}  // namespace katric::stream
