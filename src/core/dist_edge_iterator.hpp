#pragma once

#include "core/algorithm.hpp"

namespace katric::core {

/// Communication mode of the distributed edge iterator family.
struct EdgeIteratorMode {
    bool buffered = true;   ///< false = Alg. 2 with one send per cut edge (Fig. 2)
    bool indirect = false;  ///< grid-routed delivery (the "2" variants)
};

/// The distributed EDGEITERATOR family (Alg. 2 / Section IV-A/B):
///   * local phase — intersections for edges (v,u) with both endpoints local;
///   * global phase — for every cut edge (v,u), send (v, N⁺(v)) to rank(u)
///     once per destination PE (Arifuzzaman's surrogate rule over ID-sorted
///     neighborhoods), aggregated through the dynamic message queue when
///     buffered, and optionally routed indirectly;
///   * reduce — binomial-tree sum of the per-PE counts.
///
/// mode = {buffered=false}        → the "no buffering" series of Fig. 2
/// mode = {buffered=true}         → DITRIC
/// mode = {buffered, indirect}    → DITRIC2
///
/// Preprocessing (ghost-degree exchange + orientation) is governed by
/// `preprocess`: built and charged here by default (the paper's timing
/// scope), or replayed/skipped over views an Engine already preprocessed.
CountResult run_edge_iterator(net::Simulator& sim, const std::vector<DistGraph>& views,
                              const AlgorithmOptions& options, EdgeIteratorMode mode,
                              const TriangleSink* sink = nullptr,
                              const Preprocess& preprocess = {});

}  // namespace katric::core
