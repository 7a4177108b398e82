#pragma once

#include <functional>
#include <vector>

#include "core/runner.hpp"
#include "stream/dynamic_graph.hpp"
#include "stream/edge_stream.hpp"
#include "stream/incremental.hpp"
#include "stream/incremental_lcc.hpp"

namespace katric::stream {

/// Per-batch observer, called after each batch commits.
using BatchObserver = std::function<void(const BatchStats&)>;

/// Builds every rank's dynamic view of `initial` under `partition`, one rank
/// at a time: DistGraph::from_global, ghost degrees read from `initial`,
/// then DynamicDistGraph::from_view. The entry point for tests and benches
/// that drive IncrementalCounter directly; katric::Engine derives its
/// stream views from its own preprocessed views instead, and both paths
/// give the same views.
[[nodiscard]] std::vector<DynamicDistGraph> distribute_dynamic(
    const graph::CsrGraph& initial, const graph::Partition1D& partition);

}  // namespace katric::stream
