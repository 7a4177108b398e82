#pragma once

#include <optional>

#include "error.hpp"
#include "graph/csr_graph.hpp"
#include "graph/edge_list.hpp"

namespace katric::graph {

/// Builds an undirected CSR graph from an edge list. The list is normalized
/// (canonicalized, deduplicated, self-loops dropped) and symmetrized; if
/// num_vertices is 0 the vertex count is inferred from the largest endpoint.
/// An endpoint at or beyond a nonzero num_vertices, or equal to
/// kInvalidVertex, is a programming error (assertion); callers holding
/// untrusted input use try_build_undirected.
[[nodiscard]] CsrGraph build_undirected(EdgeList edges, VertexId num_vertices = 0);

/// Validating variant for untrusted input (files, network, user batches):
/// an edge endpoint at or beyond a nonzero num_vertices, or equal to
/// kInvalidVertex (whatever num_vertices says), returns nullopt and
/// fills `error` (when non-null) with a typed RunError::kInvalidInput naming
/// the offending endpoint — instead of build_undirected's assertion. The
/// normalization semantics (self-loops dropped, duplicates folded) are
/// identical: those are defined cleanups, not errors.
[[nodiscard]] std::optional<CsrGraph> try_build_undirected(EdgeList edges,
                                                           VertexId num_vertices,
                                                           Error* error = nullptr);

/// Extracts the undirected edge list (each edge once, canonical u < v).
[[nodiscard]] EdgeList to_edge_list(const CsrGraph& graph);

}  // namespace katric::graph
