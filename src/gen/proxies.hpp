#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/csr_graph.hpp"

namespace katric::gen {

/// Synthetic stand-ins for the real-world instances of the paper's Table I.
/// Each proxy is generated at a reduced scale but from the matching graph
/// family with the matching average degree and locality regime:
///   social (live-journal, orkut, twitter, friendster) — R-MAT / RHG with a
///       random vertex shuffle (skewed degrees, no locality);
///   web (uk-2007-05, webbase-2001) — RHG in natural order (power law,
///       high clustering, crawl-order locality);
///   road (europe, usa) — perturbed lattice (uniform low degree, tiny cut).
struct ProxySpec {
    std::string name;       ///< e.g. "live-journal"
    std::string family;     ///< "social" | "web" | "road"
    std::string generator;  ///< human-readable generator recipe
    // Paper's Table I values (absolute, for EXPERIMENTS.md comparison):
    std::uint64_t paper_n;
    std::uint64_t paper_m;
    std::uint64_t paper_wedges;     // millions in the paper; stored absolute
    std::uint64_t paper_triangles;  // absolute
};

/// All eight proxies, in Table I order.
[[nodiscard]] const std::vector<ProxySpec>& proxy_registry();

/// Builds a proxy instance. scale = 1 gives the default bench size
/// (2^13…2^15 vertices); scale k multiplies the vertex count by k (the edge
/// density stays family-faithful). Deterministic in (name, scale).
[[nodiscard]] graph::CsrGraph build_proxy(const std::string& name, std::uint64_t scale = 1);

[[nodiscard]] const ProxySpec& proxy_spec(const std::string& name);

}  // namespace katric::gen
