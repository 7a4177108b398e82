#pragma once

#include <functional>
#include <vector>

#include "core/runner.hpp"
#include "stream/dynamic_graph.hpp"
#include "stream/edge_stream.hpp"
#include "stream/incremental.hpp"
#include "stream/incremental_lcc.hpp"

namespace katric::stream {

/// One streaming experiment: machine, rank count, partition strategy, and
/// the static algorithm used for the initial count (and for full-recount
/// comparisons in the bench). Mirrors core::RunSpec so every existing
/// generator, partitioner, and NetworkConfig plugs in unchanged.
struct StreamRunSpec {
    core::Algorithm initial_algorithm = core::Algorithm::kCetric;
    graph::Rank num_ranks = 4;
    net::NetworkConfig network = net::NetworkConfig::supermuc_like();
    core::AlgorithmOptions options = {};
    core::PartitionStrategy partition = core::PartitionStrategy::kBalancedEdges;
    /// Route stream traffic through the grid proxy (Section IV-B).
    bool indirect = false;
    /// Maintain per-vertex Δ and LCC alongside the global count (an
    /// IncrementalLcc rides the counter; each batch pays one extra
    /// Δ-flush phase, reported in BatchStats::lcc_seconds). The initial
    /// static pass runs core::compute_distributed_lcc, so
    /// initial_algorithm must support a triangle sink.
    bool maintain_lcc = false;

    /// The equivalent static RunSpec (initial count, full recounts).
    [[nodiscard]] core::RunSpec static_spec() const {
        return core::RunSpec{initial_algorithm, num_ranks, network, options, partition};
    }
};

/// Per-batch observer, called after each batch commits.
using BatchObserver = std::function<void(const BatchStats&)>;

/// Builds every rank's dynamic view of `initial` under spec's partition —
/// the streaming analogue of graph::distribute, exposed for tests/benches
/// that drive IncrementalCounter directly.
[[nodiscard]] std::vector<DynamicDistGraph> distribute_dynamic(
    const graph::CsrGraph& initial, const StreamRunSpec& spec);

/// Same, over an already-computed partition — katric::Engine's path when it
/// promotes its built static state into a stream session without paying a
/// second partitioning pass.
[[nodiscard]] std::vector<DynamicDistGraph> distribute_dynamic(
    const graph::CsrGraph& initial, const graph::Partition1D& partition);

}  // namespace katric::stream
