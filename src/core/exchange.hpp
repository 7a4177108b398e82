#pragma once

#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "core/algorithm.hpp"

namespace katric::core {

/// The neighborhood-exchange pipeline of the paper's five algorithms
/// (Sections IV-A to IV-C): one body, switched by the algorithm.
///
///   * local phase — intersections for edges (v,u) with both endpoints
///     local; CETRIC expands it over the ghost rows A(g) (Alg. 3 lines
///     5–7), which finds every type-1 and type-2 triangle;
///   * contraction (CETRIC only, Alg. 3 line 8) — A(v) shrinks to the
///     cut-graph adjacency Ac(v) = A(v) \ V_i;
///   * global phase — for every cut edge (v,u), send (v, A(v)) to rank(u)
///     once per destination PE, over the contracted rows after contraction,
///     aggregated through the dynamic message queue (or one send per record
///     for the unbuffered edge iterator of Fig. 2) and routed through the
///     grid for the "2" variants;
///   * reduce — binomial-tree sum of the per-PE counts.
///
/// algorithm ∈ {EdgeIterator-unbuffered, DITRIC, DITRIC2, CETRIC, CETRIC2};
/// the baselines throw. The caller charges the preprocessing front half
/// (core::apply_preprocessing) first. With options.detect_termination the
/// global phase ends on a Mattern four-counter verdict instead of the
/// simulator's omniscient quiescence.
CountResult run_exchange(net::Simulator& sim, const std::vector<DistGraph>& views,
                         const AlgorithmOptions& options, Algorithm algorithm,
                         const TriangleSink* sink);

// --- building blocks shared with CETRIC-AMQ, the baselines and streaming ---

/// The local phase (superstep "local"): per rank, intersect A(v) with A(u)
/// for every local v and every local u ∈ A(v) — and, when `expanded`, for
/// every u ∈ A(v) and the ghost rows A(g) too. CETRIC, CETRIC2 and
/// CETRIC-AMQ run it expanded; each ghost u's row comes from
/// DistGraph::a_set through the view's O(1) ghost rank lookup. With
/// options.threads > 1 and no sink the intersections are binned onto
/// threads (ThreadBinner) and the phase costs the makespan. Returns the
/// per-rank counts.
[[nodiscard]] std::vector<std::uint64_t> run_local_phase(
    net::Simulator& sim, const std::vector<DistGraph>& views,
    const AlgorithmOptions& options, bool expanded, const TriangleSink* sink);

/// The contraction superstep: the contracted adjacency was materialized
/// during preprocessing; this charges the linear pass that drops non-cut
/// edges.
void charge_contraction(net::Simulator& sim, const std::vector<DistGraph>& views);

/// Where a queue's records go first: straight to their destination, via the
/// grid (Section IV-B), or via HavoqGT's node gateways (options.pes_per_node).
enum class Routing : std::uint8_t { kDirect, kGrid, kTwoLevel };

/// The machine's dynamically buffered queue: rank r's δ = auto_threshold of
/// views[r]'s half-edges.
template <typename View>
[[nodiscard]] net::MessageQueue make_queue(
    const std::vector<View>& views, const AlgorithmOptions& options, Routing routing,
    int tag, bool epoch_stamped = false) {
    const auto p = static_cast<Rank>(views.size());
    std::unique_ptr<const net::Router> router;
    switch (routing) {
        case Routing::kDirect: router = std::make_unique<net::DirectRouter>(); break;
        case Routing::kGrid: router = std::make_unique<net::GridRouter>(p); break;
        case Routing::kTwoLevel:
            router = std::make_unique<net::TwoLevelRouter>(p, options.pes_per_node);
            break;
    }
    std::vector<std::uint64_t> thresholds;
    for (const auto& view : views) {
        thresholds.push_back(auto_threshold(view.num_local_half_edges(), options));
    }
    return net::MessageQueue(std::move(router), thresholds, tag, epoch_stamped);
}

/// The sender side of every neighborhood exchange: for each local v, one
/// record per PE owning a non-local member of row(v) — the surrogate rule
/// of Arifuzzaman et al.: rows are ID-sorted, so owners appear
/// nondecreasing and a last-owner check sends A(v) once per PE. The first
/// time v needs a record, `encode(v, row, record)` appends it to the empty
/// `record`; `post(owner, record)` ships it. Charges one op per scanned
/// member.
template <typename Row, typename Encode, typename Post>
void ship_neighborhoods(net::RankHandle& self, const DistGraph& view, const Row& row,
                        const Encode& encode, const Post& post) {
    net::WordVec record;
    for (VertexId v = view.first_local(); v < view.first_local() + view.num_local();
         ++v) {
        const std::span<const VertexId> a_v = row(v);
        if (a_v.empty()) { continue; }
        record.clear();
        Rank last = self.rank();  // never a send target for the rank's own vertices
        for (const VertexId u : a_v) {
            self.charge_ops(1);
            if (view.is_local(u)) { continue; }
            const Rank owner = view.partition().rank_of(u);
            if (owner == last) { continue; }
            last = owner;
            if (record.empty()) { encode(v, a_v, record); }
            post(owner, record);
        }
    }
}

/// The reduce superstep: binomial-tree sum of the per-rank local + global
/// counts into result.triangles, the phase-attributed totals, and the
/// machine's metrics.
void reduce_counts(net::Simulator& sim, const std::vector<std::uint64_t>& local_counts,
                   const std::vector<std::uint64_t>& global_counts, CountResult& result);

}  // namespace katric::core
