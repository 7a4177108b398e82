#pragma once

#include <optional>
#include <vector>

#include "graph/types.hpp"

namespace katric::graph {

/// A bag of undirected edges, the exchange format between generators,
/// I/O, and the CSR builder.
class EdgeList {
public:
    EdgeList() = default;
    explicit EdgeList(std::vector<Edge> edges) : edges_(std::move(edges)) {}

    void add(VertexId u, VertexId v) { edges_.push_back(Edge{u, v}); }
    void reserve(std::size_t n) { edges_.reserve(n); }
    void append(const EdgeList& other);

    [[nodiscard]] std::size_t size() const noexcept { return edges_.size(); }
    [[nodiscard]] bool empty() const noexcept { return edges_.empty(); }
    [[nodiscard]] const std::vector<Edge>& edges() const noexcept { return edges_; }
    [[nodiscard]] std::vector<Edge>& edges() noexcept { return edges_; }

    /// Canonicalizes (u ≤ v), removes self-loops and duplicates, sorts.
    /// After this, size() is the number m of distinct undirected edges.
    void normalize();

    /// Largest endpoint + 1, or 0 when empty. The number of vertices n must
    /// be at least this; isolated trailing vertices may push n higher.
    /// Empty when an endpoint is kInvalidVertex: its + 1 would wrap to 0, and
    /// no vertex universe holds it.
    [[nodiscard]] std::optional<VertexId> max_vertex_plus_one() const noexcept;

private:
    std::vector<Edge> edges_;
};

}  // namespace katric::graph
