#pragma once

#include <string>

#include "graph/csr_graph.hpp"
#include "graph/edge_list.hpp"

namespace katric::graph {

/// Text edge-list I/O: one "u v" pair per line; '#' and '%' start comments
/// (SNAP / KONECT conventions) and columns after the first two (weights,
/// timestamps) are ignored. Directed inputs are interpreted as undirected,
/// as in the paper's preprocessing. A line whose first two tokens are not
/// vertex IDs (plain decimals below 2^64 − 1) throws assertion_error naming
/// the path and line number.
[[nodiscard]] EdgeList read_edge_list_text(const std::string& path);
void write_edge_list_text(const EdgeList& edges, const std::string& path);

/// METIS graph format: header "n m", then one 1-indexed neighbor list per
/// vertex; '%' lines are comments. The interchange format of the partitioning
/// community (and of KaGen's file output). A malformed header or neighbor,
/// a missing vertex line, or an edge count other than the header's throws
/// assertion_error.
[[nodiscard]] CsrGraph read_metis(const std::string& path);
void write_metis(const CsrGraph& graph, const std::string& path);

}  // namespace katric::graph
