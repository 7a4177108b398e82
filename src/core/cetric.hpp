#pragma once

#include "core/algorithm.hpp"

namespace katric::core {

/// CETRIC (Section IV-C, Algorithm 3): the communication-efficient,
/// contraction-based two-phase variant of DITRIC.
///
///   * preprocessing — ghost-degree exchange, degree orientation, and the
///     expanded ghost adjacency A(g) built by rewiring incoming cut edges;
///   * local phase — a sequential count on the expanded local graph
///     (all v ∈ V_i ∪ ∂V_i), which finds every type-1 and type-2 triangle
///     without any communication;
///   * contraction — A(v) shrinks to the cut-graph adjacency Ac(v) = A(v)\V_i
///     (Lemma 1: triangles of ∂G are exactly the type-3 triangles of G);
///   * global phase — DITRIC's neighborhood exchange, but over the
///     contracted lists only, so communication volume depends solely on the
///     cut structure;
///   * reduce — binomial-tree sum.
///
/// indirect=true gives CETRIC2 (grid routing in the global phase).
/// `preprocess` selects build vs. charge/skip of the front half
/// (core::Preprocess; the default builds, the one-shot behaviour).
CountResult run_cetric(net::Simulator& sim, const std::vector<DistGraph>& views,
                       const AlgorithmOptions& options, bool indirect,
                       const TriangleSink* sink = nullptr,
                       const Preprocess& preprocess = {});

}  // namespace katric::core
