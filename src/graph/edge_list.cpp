#include "graph/edge_list.hpp"

#include <algorithm>

namespace katric::graph {

void EdgeList::append(const EdgeList& other) {
    edges_.insert(edges_.end(), other.edges_.begin(), other.edges_.end());
}

void EdgeList::normalize() {
    for (auto& e : edges_) { e = e.canonical(); }
    std::erase_if(edges_, [](const Edge& e) { return e.is_self_loop(); });
    std::sort(edges_.begin(), edges_.end());
    edges_.erase(std::unique(edges_.begin(), edges_.end()), edges_.end());
}

std::optional<VertexId> EdgeList::max_vertex_plus_one() const noexcept {
    VertexId max_plus_one = 0;
    for (const auto& e : edges_) {
        if (e.u == kInvalidVertex || e.v == kInvalidVertex) { return std::nullopt; }
        max_plus_one = std::max({max_plus_one, e.u + 1, e.v + 1});
    }
    return max_plus_one;
}

}  // namespace katric::graph
