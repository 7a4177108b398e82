#pragma once

#include "core/algorithm.hpp"

namespace katric::core {

/// HavoqGT-style baseline (Pearce et al., as characterized in Section III-A2
/// of the paper): a vertex-centric algorithm on the degree-oriented graph.
/// For every vertex v it generates all open wedges {u,w} ⊆ N⁺(v) and sends a
/// closing-edge query (u,w) to the owner of u, which probes its adjacency.
/// Queries are aggregated with the message queue (standing in for HavoqGT's
/// node-level aggregation + rerouting). The communication volume is
/// proportional to the number of *wedges* rather than the number of cut
/// neighborhoods — the structural reason this approach loses by an order of
/// magnitude on wedge-heavy inputs (Fig. 5/6). The caller charges the
/// preprocessing front half (core::apply_preprocessing) first.
CountResult run_havoqgt_style(net::Simulator& sim, const std::vector<DistGraph>& views,
                              const AlgorithmOptions& options);

}  // namespace katric::core
