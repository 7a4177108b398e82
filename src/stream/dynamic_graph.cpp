#include "stream/dynamic_graph.hpp"

#include <algorithm>
#include <limits>

#include "graph/builder.hpp"
#include "graph/edge_list.hpp"
#include "util/assert.hpp"

namespace katric::stream {
namespace {

/// A ghost-degree slot no note has written yet; no vertex has this degree.
constexpr Degree kUnknownDegree = std::numeric_limits<Degree>::max();

}  // namespace

DynamicDistGraph DynamicDistGraph::from_view(const graph::DistGraph& view) {
    KATRIC_ASSERT_MSG(view.ghost_degrees_ready(),
                      "a dynamic view seeds its ghost degrees from the exchanged ones");
    DynamicDistGraph dynamic;
    dynamic.partition_ = view.partition();
    dynamic.rank_ = view.rank();
    dynamic.rows_.reserve(view.num_local());
    const VertexId end = view.first_local() + view.num_local();
    for (VertexId v = view.first_local(); v < end; ++v) {
        const auto neighbors = view.neighbors(v);
        dynamic.rows_.emplace_back(neighbors.begin(), neighbors.end());
    }
    dynamic.num_half_edges_ = view.num_local_half_edges();
    dynamic.ghost_degrees_.assign(dynamic.partition_.num_vertices(), kUnknownDegree);
    for (const VertexId g : view.ghost_ids()) {
        dynamic.ghost_degrees_[g] = view.degree(g);
    }
    return dynamic;
}

std::size_t DynamicDistGraph::local_index(VertexId v) const {
    KATRIC_ASSERT_MSG(is_local(v), "vertex " << v << " is not local to rank " << rank_);
    return static_cast<std::size_t>(v - first_local());
}

Degree DynamicDistGraph::degree(VertexId local_v) const {
    return static_cast<Degree>(rows_[local_index(local_v)].size());
}

std::span<const VertexId> DynamicDistGraph::neighbors(VertexId local_v) const {
    return rows_[local_index(local_v)];
}

bool DynamicDistGraph::has_edge(VertexId local_u, VertexId v) const {
    const auto& row = rows_[local_index(local_u)];
    return std::binary_search(row.begin(), row.end(), v);
}

bool DynamicDistGraph::insert_half_edge(VertexId local_u, VertexId v) {
    KATRIC_ASSERT_MSG(local_u != v, "self-loops are not representable");
    KATRIC_ASSERT(v < partition_.num_vertices());
    auto& row = rows_[local_index(local_u)];
    const auto it = std::lower_bound(row.begin(), row.end(), v);
    if (it != row.end() && *it == v) { return false; }
    row.insert(it, v);
    ++num_half_edges_;
    if (hub_index_) { hub_index_->mark_dirty(local_u); }
    return true;
}

bool DynamicDistGraph::erase_half_edge(VertexId local_u, VertexId v) {
    auto& row = rows_[local_index(local_u)];
    const auto it = std::lower_bound(row.begin(), row.end(), v);
    if (it == row.end() || *it != v) { return false; }
    row.erase(it);
    --num_half_edges_;
    if (hub_index_) { hub_index_->mark_dirty(local_u); }
    return true;
}

std::optional<Degree> DynamicDistGraph::ghost_degree(VertexId v) const {
    if (v >= ghost_degrees_.size() || ghost_degrees_[v] == kUnknownDegree) {
        return std::nullopt;
    }
    return ghost_degrees_[v];
}

void DynamicDistGraph::note_ghost_degree(VertexId v, Degree degree) {
    const VertexId n = partition_.num_vertices();
    KATRIC_ASSERT_MSG(v < n, "ghost-degree note for vertex " << v
                                 << " outside the vertex universe [0, " << n << ")");
    KATRIC_ASSERT_MSG(!is_local(v), "ghost-degree note for a local vertex");
    KATRIC_ASSERT_MSG(degree != kUnknownDegree,
                      "ghost-degree note of degree " << degree << " for vertex " << v);
    ghost_degrees_[v] = degree;
}

void DynamicDistGraph::neighbor_ranks(VertexId local_v, std::vector<Rank>& ranks) const {
    ranks.clear();
    const auto& bounds = partition_.boundaries();
    Rank owner = 0;
    VertexId owner_end = 0;  // end of owner's range; 0 until the first neighbor
    for (const VertexId w : neighbors(local_v)) {
        if (w < owner_end) { continue; }  // owner already seen
        // Rank owner owns [bounds[owner], bounds[owner + 1]); ranks owning
        // no vertices have equal bounds and are stepped over.
        while (bounds[owner + 1] <= w) { ++owner; }
        owner_end = bounds[owner + 1];
        if (owner != rank_) { ranks.push_back(owner); }
    }
}

std::uint64_t DynamicDistGraph::enable_hub_bitmaps(Degree degree_threshold,
                                                   std::size_t max_hubs) {
    hub_index_ = std::make_unique<seq::HubBitmapIndex>();
    seq::HubBitmapIndex::Config config;
    config.degree_threshold = degree_threshold;
    config.max_hubs = max_hubs;
    config.universe = partition_.num_vertices();
    std::vector<VertexId> candidates;
    candidates.reserve(num_local());
    for (VertexId v = first_local(); v < first_local() + num_local(); ++v) {
        candidates.push_back(v);
    }
    return hub_index_->build(config, candidates,
                             [this](VertexId id) { return neighbors(id); });
}

std::uint64_t DynamicDistGraph::rebuild_dirty_hubs() {
    if (!hub_index_) { return 0; }
    return hub_index_->rebuild_dirty([this](VertexId id) { return neighbors(id); });
}

CsrGraph materialize_global(const std::vector<DynamicDistGraph>& views) {
    KATRIC_ASSERT(!views.empty());
    const auto& partition = views.front().partition();
    graph::EdgeList edges;
    for (const auto& view : views) {
        const VertexId begin = view.first_local();
        const VertexId end = begin + view.num_local();
        for (VertexId v = begin; v < end; ++v) {
            for (const VertexId w : view.neighbors(v)) {
                if (v < w) { edges.add(v, w); }
            }
        }
    }
    return graph::build_undirected(std::move(edges), partition.num_vertices());
}

}  // namespace katric::stream
