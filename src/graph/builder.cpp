#include "graph/builder.hpp"

#include <algorithm>
#include <span>
#include <sstream>
#include <string>
#include <utility>

#include "core/algorithm.hpp"
#include "util/assert.hpp"
#include "util/prefix_sum.hpp"

namespace katric::graph {

namespace {

/// The shared build body, entered only with validated input (every endpoint
/// < n after normalization).
CsrGraph build_validated(const EdgeList& edges, VertexId n) {
    std::vector<EdgeId> degree(n, 0);
    for (const auto& e : edges.edges()) {
        ++degree[e.u];
        ++degree[e.v];
    }
    auto offsets = katric::exclusive_prefix_sum(std::span<const EdgeId>(degree));
    std::vector<VertexId> targets(offsets.back());
    std::vector<EdgeId> cursor(offsets.begin(), offsets.end() - 1);
    for (const auto& e : edges.edges()) {
        targets[cursor[e.u]++] = e.v;
        targets[cursor[e.v]++] = e.u;
    }
    // Normalized input is sorted by (u, v), so each vertex's out-entries are
    // appended in increasing order — but entries coming from the reverse
    // direction interleave, so sort per neighborhood.
    for (VertexId v = 0; v < n; ++v) {
        std::sort(targets.begin() + static_cast<std::ptrdiff_t>(offsets[v]),
                  targets.begin() + static_cast<std::ptrdiff_t>(offsets[v + 1]));
    }
    return CsrGraph(std::move(offsets), std::move(targets), /*oriented=*/false);
}

/// The vertex universe of normalized `edges`: `num_vertices`, or the largest
/// endpoint + 1 when that is 0. Empty, with `detail` naming the endpoint,
/// when an endpoint lies outside it; kInvalidVertex lies outside every one.
std::optional<VertexId> resolve_universe(const EdgeList& edges, VertexId num_vertices,
                                         std::string& detail) {
    const auto inferred = edges.max_vertex_plus_one();
    if (!inferred.has_value()) {
        detail = "edge endpoint " + std::to_string(kInvalidVertex)
                 + " is not a vertex ID (IDs lie below 2^64 - 1)";
        return std::nullopt;
    }
    const VertexId n = num_vertices == 0 ? *inferred : num_vertices;
    if (*inferred > n) {
        std::ostringstream out;
        out << "edge endpoint " << *inferred - 1
            << " outside the declared vertex universe [0, " << n << ")";
        detail = out.str();
        return std::nullopt;
    }
    return n;
}

}  // namespace

CsrGraph build_undirected(EdgeList edges, VertexId num_vertices) {
    edges.normalize();
    std::string detail;
    const auto n = resolve_universe(edges, num_vertices, detail);
    KATRIC_ASSERT_MSG(n.has_value(), detail);
    return build_validated(edges, *n);
}

std::optional<CsrGraph> try_build_undirected(EdgeList edges, VertexId num_vertices,
                                             Error* error) {
    edges.normalize();
    std::string detail;
    const auto n = resolve_universe(edges, num_vertices, detail);
    if (!n.has_value()) {
        if (error != nullptr) {
            *error = make_error(core::RunError::kInvalidInput, detail);
        }
        return std::nullopt;
    }
    if (error != nullptr) { *error = Error{}; }
    return build_validated(edges, *n);
}

EdgeList to_edge_list(const CsrGraph& graph) {
    EdgeList out;
    out.reserve(graph.num_edges());
    for (VertexId v = 0; v < graph.num_vertices(); ++v) {
        for (VertexId u : graph.neighbors(v)) {
            if (v < u || graph.is_oriented()) { out.add(v, u); }
        }
    }
    return out;
}

}  // namespace katric::graph
