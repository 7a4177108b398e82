#pragma once

#include <vector>

#include "graph/csr_graph.hpp"
#include "seq/intersection.hpp"

namespace katric::seq {

/// Local clustering coefficients. With Δ(v) triangles incident to v and
/// degree d_v, the standard definition is
///     LCC(v) = 2·Δ(v) / (d_v·(d_v − 1)),
/// the fraction of closed wedges at v, normalized to [0,1]. (The paper's
/// Section IV-E prints the formula without the factor 2; we use the standard
/// normalization — both sides of every comparison in this repository use the
/// same formula.) Vertices with d_v < 2 have LCC 0.
[[nodiscard]] std::vector<double> local_clustering_coefficients(
    const graph::CsrGraph& undirected, IntersectKind kind = IntersectKind::kMerge);

/// Same from precomputed Δ values.
[[nodiscard]] std::vector<double> lcc_from_triangle_counts(
    const graph::CsrGraph& undirected, const std::vector<std::uint64_t>& delta);

/// Average LCC over all vertices — the global clustering statistic used to
/// sanity-check proxy instances against their family (web ≫ road).
[[nodiscard]] double average_lcc(const graph::CsrGraph& undirected);

/// Δ and LCC of a static graph in one call — the single-machine reference
/// oracle the distributed and streaming paths are property-tested against.
struct LccOracle {
    std::vector<std::uint64_t> delta;
    std::vector<double> lcc;
};

[[nodiscard]] LccOracle compute_lcc_oracle(const graph::CsrGraph& undirected);

}  // namespace katric::seq
