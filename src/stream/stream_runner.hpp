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

/// Builds every rank's dynamic view of `initial` under `partition` — the
/// streaming analogue of graph::distribute: katric::Engine's path when it
/// promotes its built static state into a stream session without paying a
/// second partitioning pass, and the entry point for tests and benches that
/// drive IncrementalCounter directly.
[[nodiscard]] std::vector<DynamicDistGraph> distribute_dynamic(
    const graph::CsrGraph& initial, const graph::Partition1D& partition);

}  // namespace katric::stream
