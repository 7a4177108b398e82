#pragma once

#include <optional>
#include <span>
#include <vector>

#include <memory>

#include "graph/csr_graph.hpp"
#include "graph/edge_list.hpp"
#include "graph/partition.hpp"
#include "graph/types.hpp"
#include "seq/bitmap_index.hpp"

namespace katric::graph {

/// The per-PE view of a 1-D partitioned graph (Fig. 1 of the paper):
///
///  * local vertices      — the contiguous range V_i assigned by the partition;
///  * ghost vertices      — non-local endpoints of edges incident to V_i;
///  * interface vertices  — local vertices adjacent to at least one ghost;
///  * cut edges           — edges with endpoints on different PEs.
///
/// Owners see the complete neighborhood of their local vertices (global IDs,
/// ID-sorted), so local degrees are exact. Ghost degrees are *not* locally
/// derivable; they arrive through the ghost-degree exchange
/// (exchange_ghost_degree in Algorithm 3) and must be supplied via
/// set_ghost_degree()/fill_ghost_degrees_from() before build_oriented().
///
/// After build_oriented() the view exposes the three adjacency sets of
/// Algorithm 3:
///   A(v)  for local v  = {x ∈ N(v) | x ≻ v}                (out_neighbors)
///   A(g)  for ghost g  = {x ∈ N(g) | x ≻ g ∧ x local}      (ghost_out_neighbors,
///                        built by rewiring incoming cut edges — no extra edges)
///   Ac(v) for local v  = A(v) \ V_i                        (contracted_out_neighbors,
///                        the cut-graph adjacency used in the global phase)
class DistGraph {
public:
    /// Builds rank `rank`'s view of `global`. Only reads the neighborhoods
    /// of vertices in V_rank — mirroring that a PE has no access to other
    /// parts of the input.
    [[nodiscard]] static DistGraph from_global(const CsrGraph& global,
                                               const Partition1D& partition, Rank rank);

    /// Builds a view directly from locally received edges — the distributed
    /// input pipeline (core::generate_distributed): `local_edges` must
    /// contain every edge with at least one endpoint in V_rank (duplicates
    /// and self-loops are removed here; edges with no local endpoint are a
    /// precondition violation). No global graph is ever materialized.
    [[nodiscard]] static DistGraph from_local_edges(const Partition1D& partition,
                                                    Rank rank, EdgeList local_edges);

    [[nodiscard]] Rank rank() const noexcept { return rank_; }
    [[nodiscard]] const Partition1D& partition() const noexcept { return partition_; }
    [[nodiscard]] VertexId first_local() const noexcept { return partition_.begin(rank_); }
    [[nodiscard]] VertexId num_local() const noexcept { return partition_.size(rank_); }
    [[nodiscard]] bool is_local(VertexId v) const noexcept {
        return partition_.is_local(v, rank_);
    }

    /// Number of local undirected edge endpoints |E_i| (half-edges stored
    /// here); the paper's per-PE input size used for the buffer threshold δ.
    [[nodiscard]] EdgeId num_local_half_edges() const noexcept {
        return static_cast<EdgeId>(targets_.size());
    }
    [[nodiscard]] EdgeId num_cut_edges() const noexcept { return num_cut_edges_; }

    // --- undirected local adjacency -------------------------------------
    [[nodiscard]] Degree degree(VertexId v) const;  // local or ghost (after fill)
    [[nodiscard]] std::span<const VertexId> neighbors(VertexId local_v) const;

    // --- ghosts ----------------------------------------------------------
    [[nodiscard]] std::size_t num_ghosts() const noexcept { return ghost_ids_.size(); }
    [[nodiscard]] VertexId ghost_id(std::size_t ghost_index) const {
        return ghost_ids_[ghost_index];
    }
    [[nodiscard]] std::optional<std::size_t> ghost_index(VertexId v) const noexcept;
    [[nodiscard]] bool is_ghost(VertexId v) const noexcept {
        return ghost_index(v).has_value();
    }
    [[nodiscard]] const std::vector<VertexId>& ghost_ids() const noexcept {
        return ghost_ids_;
    }

    void set_ghost_degree(std::size_t ghost_index, Degree degree);
    [[nodiscard]] bool ghost_degrees_ready() const noexcept { return ghost_degrees_set_; }
    /// Test/bench shortcut: reads true ghost degrees straight from the global
    /// graph instead of performing the message exchange.
    void fill_ghost_degrees_from(const CsrGraph& global);
    /// Marks the exchange as complete (all set_ghost_degree calls done).
    void mark_ghost_degrees_ready() noexcept { ghost_degrees_set_ = true; }

    // --- classification ---------------------------------------------------
    [[nodiscard]] bool is_interface(VertexId local_v) const;
    [[nodiscard]] std::size_t num_interface_vertices() const;

    /// Degree-based total order ≺ (requires ghost degrees for ghost operands).
    [[nodiscard]] bool precedes(VertexId u, VertexId v) const;

    // --- oriented adjacency (Algorithm 3) ---------------------------------
    /// Builds A(v), A(ghost), and the contracted adjacency. Requires ghost
    /// degrees. Idempotent.
    void build_oriented();
    [[nodiscard]] bool oriented_built() const noexcept { return oriented_built_; }

    [[nodiscard]] std::span<const VertexId> out_neighbors(VertexId local_v) const;
    [[nodiscard]] std::span<const VertexId> ghost_out_neighbors(std::size_t ghost_index) const;
    [[nodiscard]] std::span<const VertexId> contracted_out_neighbors(VertexId local_v) const;

    /// A(u) lookup by global ID as needed in the local phase (line 7 of
    /// Algorithm 3): full out-neighborhood for local u, rewired local-only
    /// out-neighborhood for ghosts.
    [[nodiscard]] std::span<const VertexId> a_set(VertexId v) const;

    /// Sum over local vertices of |Ac(v)| — the per-PE size of the cut graph
    /// after contraction; determines the global-phase communication volume.
    [[nodiscard]] EdgeId contracted_size() const;

    // --- hub bitmap index (adaptive kernel) -------------------------------
    /// Materializes this rank's hub bitmap index over the oriented rows the
    /// counting phases intersect against — A(v) for locals, the rewired
    /// A(g) for ghosts. Returns the elementary ops spent (for simulator
    /// charging). Requires build_oriented(). Always builds a fresh index.
    std::uint64_t build_hub_bitmaps(seq::HubBitmapIndex::Config config);
    /// nullptr until build_hub_bitmaps() ran.
    [[nodiscard]] const seq::HubBitmapIndex* hub_index() const noexcept {
        return hub_index_.get();
    }

private:
    [[nodiscard]] std::size_t local_index(VertexId v) const;

    Partition1D partition_;
    Rank rank_ = 0;

    // Undirected adjacency of local vertices (global IDs, ID-sorted).
    std::vector<EdgeId> offsets_;
    std::vector<VertexId> targets_;

    std::vector<VertexId> ghost_ids_;  // sorted
    std::vector<Degree> ghost_degrees_;
    bool ghost_degrees_set_ = false;

    EdgeId num_cut_edges_ = 0;

    bool oriented_built_ = false;
    std::vector<EdgeId> out_offsets_;
    std::vector<VertexId> out_targets_;
    std::vector<EdgeId> ghost_out_offsets_;
    std::vector<VertexId> ghost_out_targets_;
    std::vector<EdgeId> contracted_offsets_;
    std::vector<VertexId> contracted_targets_;

    // shared_ptr so copied views (tests clone them freely) stay cheap.
    // build_hub_bitmaps always installs a *fresh* index, so copies never see
    // a mutated shared one.
    std::shared_ptr<seq::HubBitmapIndex> hub_index_;
};

/// Builds every rank's view of a global graph — the bench/test entry point
/// standing in for parallel graph loading.
[[nodiscard]] std::vector<DistGraph> distribute(const CsrGraph& global,
                                                const Partition1D& partition);

}  // namespace katric::graph
