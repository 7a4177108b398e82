#include "graph/distributed_graph.hpp"

#include <algorithm>

#include "util/assert.hpp"
#include "util/prefix_sum.hpp"

namespace katric::graph {

template <typename RowOf>
DistGraph DistGraph::assemble(const Partition1D& partition, Rank rank, RowOf row_of) {
    DistGraph view;
    view.partition_ = partition;
    view.rank_ = rank;
    const VertexId begin = partition.begin(rank);
    const VertexId end = partition.end(rank);

    view.offsets_.resize(end - begin + 1);
    view.offsets_[0] = 0;
    for (VertexId v = begin; v < end; ++v) {
        view.offsets_[v - begin + 1] = view.offsets_[v - begin] + row_of(v).size();
    }
    view.targets_.reserve(view.offsets_.back());
    for (VertexId v = begin; v < end; ++v) {
        const auto nbrs = row_of(v);
        view.targets_.insert(view.targets_.end(), nbrs.begin(), nbrs.end());
    }

    for (VertexId target : view.targets_) {
        if (target < begin || target >= end) {
            view.ghost_ids_.push_back(target);
            ++view.num_cut_edges_;
        }
    }
    std::sort(view.ghost_ids_.begin(), view.ghost_ids_.end());
    view.ghost_ids_.erase(std::unique(view.ghost_ids_.begin(), view.ghost_ids_.end()),
                          view.ghost_ids_.end());
    view.ghost_degrees_.assign(view.ghost_ids_.size(), 0);
    return view;
}

DistGraph DistGraph::from_global(const CsrGraph& global, const Partition1D& partition,
                                 Rank rank) {
    KATRIC_ASSERT(rank < partition.num_ranks());
    KATRIC_ASSERT_MSG(partition.num_vertices() == global.num_vertices(),
                      "partition covers " << partition.num_vertices() << " vertices, graph has "
                                          << global.num_vertices());
    return assemble(partition, rank, [&](VertexId v) { return global.neighbors(v); });
}

DistGraph DistGraph::from_local_edges(const Partition1D& partition, Rank rank,
                                      EdgeList local_edges) {
    KATRIC_ASSERT(rank < partition.num_ranks());
    local_edges.normalize();
    const VertexId begin = partition.begin(rank);
    const VertexId end = partition.end(rank);

    std::vector<std::vector<VertexId>> adjacency(end - begin);
    for (const auto& e : local_edges.edges()) {
        const bool u_local = e.u >= begin && e.u < end;
        const bool v_local = e.v >= begin && e.v < end;
        KATRIC_ASSERT_MSG(u_local || v_local,
                          "edge {" << e.u << ',' << e.v << "} has no endpoint on rank "
                                   << rank);
        if (u_local) { adjacency[e.u - begin].push_back(e.v); }
        if (v_local) { adjacency[e.v - begin].push_back(e.u); }
    }
    for (auto& nbrs : adjacency) {
        std::sort(nbrs.begin(), nbrs.end());
        nbrs.erase(std::unique(nbrs.begin(), nbrs.end()), nbrs.end());
    }
    return assemble(partition, rank, [&](VertexId v) {
        return std::span<const VertexId>(adjacency[v - begin]);
    });
}

std::size_t DistGraph::local_index(VertexId v) const {
    KATRIC_ASSERT_MSG(is_local(v), "vertex " << v << " is not local to rank " << rank_);
    return static_cast<std::size_t>(v - first_local());
}

Degree DistGraph::degree(VertexId v) const {
    if (is_local(v)) {
        const std::size_t i = local_index(v);
        return offsets_[i + 1] - offsets_[i];
    }
    const auto gi = ghost_index(v);
    KATRIC_ASSERT_MSG(gi.has_value(), "vertex " << v << " is neither local nor ghost");
    KATRIC_ASSERT_MSG(ghost_degrees_set_, "ghost degrees not exchanged yet");
    return ghost_degrees_[*gi];
}

std::span<const VertexId> DistGraph::neighbors(VertexId local_v) const {
    const std::size_t i = local_index(local_v);
    return {targets_.data() + offsets_[i], targets_.data() + offsets_[i + 1]};
}

std::optional<std::size_t> DistGraph::ghost_index(VertexId v) const noexcept {
    const auto it = std::lower_bound(ghost_ids_.begin(), ghost_ids_.end(), v);
    if (it == ghost_ids_.end() || *it != v) { return std::nullopt; }
    return static_cast<std::size_t>(std::distance(ghost_ids_.begin(), it));
}

void DistGraph::set_ghost_degree(std::size_t index, Degree degree_value) {
    KATRIC_ASSERT(index < ghost_degrees_.size());
    ghost_degrees_[index] = degree_value;
}

void DistGraph::fill_ghost_degrees_from(const CsrGraph& global) {
    for (std::size_t i = 0; i < ghost_ids_.size(); ++i) {
        ghost_degrees_[i] = global.degree(ghost_ids_[i]);
    }
    ghost_degrees_set_ = true;
}

bool DistGraph::is_interface(VertexId local_v) const {
    for (VertexId u : neighbors(local_v)) {
        if (!is_local(u)) { return true; }
    }
    return false;
}

std::size_t DistGraph::num_interface_vertices() const {
    std::size_t count = 0;
    for (VertexId v = first_local(); v < first_local() + num_local(); ++v) {
        if (is_interface(v)) { ++count; }
    }
    return count;
}

bool DistGraph::precedes(VertexId u, VertexId v) const {
    const Degree du = degree(u);
    const Degree dv = degree(v);
    return du != dv ? du < dv : u < v;
}

void DistGraph::build_oriented() {
    if (oriented_built_) { return; }
    KATRIC_ASSERT_MSG(ghost_degrees_set_,
                      "build_oriented requires the ghost-degree exchange to have run");
    const VertexId begin = first_local();
    const VertexId local_count = num_local();

    // A(v) for local v: {x ∈ N(v) | v ≺ x}; neighborhoods stay ID-sorted.
    std::vector<EdgeId> out_degree(local_count, 0);
    for (VertexId v = begin; v < begin + local_count; ++v) {
        for (VertexId u : neighbors(v)) {
            if (precedes(v, u)) { ++out_degree[v - begin]; }
        }
    }
    out_offsets_ = katric::exclusive_prefix_sum(std::span<const EdgeId>(out_degree));
    out_targets_.clear();
    out_targets_.reserve(out_offsets_.back());
    for (VertexId v = begin; v < begin + local_count; ++v) {
        for (VertexId u : neighbors(v)) {
            if (precedes(v, u)) { out_targets_.push_back(u); }
        }
    }

    // A(g) for ghosts: rewire incoming cut edges (v local, g ghost, g ≺ v).
    std::vector<EdgeId> ghost_out_degree(ghost_ids_.size(), 0);
    for (VertexId v = begin; v < begin + local_count; ++v) {
        for (VertexId u : neighbors(v)) {
            if (!is_local(u) && precedes(u, v)) { ++ghost_out_degree[*ghost_index(u)]; }
        }
    }
    ghost_out_offsets_ =
        katric::exclusive_prefix_sum(std::span<const EdgeId>(ghost_out_degree));
    ghost_out_targets_.assign(ghost_out_offsets_.back(), kInvalidVertex);
    {
        std::vector<EdgeId> cursor(ghost_out_offsets_.begin(), ghost_out_offsets_.end() - 1);
        // Scanning v in increasing ID order appends each ghost's local
        // out-neighbors in increasing ID order — lists end up ID-sorted.
        for (VertexId v = begin; v < begin + local_count; ++v) {
            for (VertexId u : neighbors(v)) {
                if (!is_local(u) && precedes(u, v)) {
                    ghost_out_targets_[cursor[*ghost_index(u)]++] = v;
                }
            }
        }
    }

    // Contraction: Ac(v) = A(v) \ V_i (keep only cut edges).
    auto out_span = [&](VertexId v) {
        const std::size_t i = static_cast<std::size_t>(v - begin);
        return std::span<const VertexId>{out_targets_.data() + out_offsets_[i],
                                         out_targets_.data() + out_offsets_[i + 1]};
    };
    std::vector<EdgeId> contracted_degree(local_count, 0);
    for (VertexId v = begin; v < begin + local_count; ++v) {
        for (VertexId u : out_span(v)) {
            if (!is_local(u)) { ++contracted_degree[v - begin]; }
        }
    }
    contracted_offsets_ =
        katric::exclusive_prefix_sum(std::span<const EdgeId>(contracted_degree));
    contracted_targets_.clear();
    contracted_targets_.reserve(contracted_offsets_.back());
    for (VertexId v = begin; v < begin + local_count; ++v) {
        for (VertexId u : out_span(v)) {
            if (!is_local(u)) { contracted_targets_.push_back(u); }
        }
    }

    oriented_built_ = true;
}

std::span<const VertexId> DistGraph::out_neighbors(VertexId local_v) const {
    KATRIC_ASSERT(oriented_built_);
    const std::size_t i = local_index(local_v);
    return {out_targets_.data() + out_offsets_[i], out_targets_.data() + out_offsets_[i + 1]};
}

std::span<const VertexId> DistGraph::ghost_out_neighbors(std::size_t index) const {
    KATRIC_ASSERT(oriented_built_);
    KATRIC_ASSERT(index < ghost_ids_.size());
    return {ghost_out_targets_.data() + ghost_out_offsets_[index],
            ghost_out_targets_.data() + ghost_out_offsets_[index + 1]};
}

std::span<const VertexId> DistGraph::contracted_out_neighbors(VertexId local_v) const {
    KATRIC_ASSERT(oriented_built_);
    const std::size_t i = local_index(local_v);
    return {contracted_targets_.data() + contracted_offsets_[i],
            contracted_targets_.data() + contracted_offsets_[i + 1]};
}

std::span<const VertexId> DistGraph::a_set(VertexId v) const {
    if (is_local(v)) { return out_neighbors(v); }
    const auto gi = ghost_index(v);
    KATRIC_ASSERT_MSG(gi.has_value(), "a_set: vertex " << v << " not visible on rank " << rank_);
    return ghost_out_neighbors(*gi);
}

EdgeId DistGraph::contracted_size() const {
    KATRIC_ASSERT(oriented_built_);
    return contracted_offsets_.back();
}

std::uint64_t DistGraph::build_hub_bitmaps(seq::HubBitmapIndex::Config config) {
    KATRIC_ASSERT_MSG(oriented_built_, "hub bitmaps index the oriented rows");
    if (config.universe == 0) { config.universe = partition_.num_vertices(); }
    // Fresh index per build: views get copied freely by tests/benches, and a
    // shared mutable index across copies would alias their row fingerprints.
    auto index = std::make_shared<seq::HubBitmapIndex>();
    std::vector<VertexId> candidates;
    candidates.reserve(num_local() + num_ghosts());
    for (VertexId v = first_local(); v < first_local() + num_local(); ++v) {
        candidates.push_back(v);
    }
    for (std::size_t g = 0; g < num_ghosts(); ++g) { candidates.push_back(ghost_ids_[g]); }
    const auto ops =
        index->build(config, candidates, [this](VertexId id) { return a_set(id); });
    hub_index_ = std::move(index);
    return ops;
}

std::vector<DistGraph> distribute(const CsrGraph& global, const Partition1D& partition) {
    std::vector<DistGraph> views;
    views.reserve(partition.num_ranks());
    for (Rank i = 0; i < partition.num_ranks(); ++i) {
        views.push_back(DistGraph::from_global(global, partition, i));
    }
    return views;
}

}  // namespace katric::graph
