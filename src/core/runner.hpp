#pragma once

#include "core/algorithm.hpp"
#include "graph/csr_graph.hpp"
#include "graph/partition.hpp"
#include "net/network_config.hpp"

namespace katric::core {

enum class PartitionStrategy {
    kUniformVertices,  ///< ⌈n/p⌉ vertices per PE
    kBalancedEdges,    ///< contiguous ranges with ≈ m/p incident half-edges
};

/// One experiment configuration: which algorithm, how many simulated PEs,
/// what machine, what knobs.
struct RunSpec {
    Algorithm algorithm = Algorithm::kDitric;
    Rank num_ranks = 4;
    net::NetworkConfig network = net::NetworkConfig::supermuc_like();
    AlgorithmOptions options = {};
    PartitionStrategy partition = PartitionStrategy::kBalancedEdges;
};

[[nodiscard]] graph::Partition1D make_partition(const graph::CsrGraph& global,
                                                const RunSpec& spec);

/// Dispatches on spec.algorithm over per-rank views that run_preprocessing
/// already preprocessed; the run only charges the front half as `preprocess`
/// says (the TriC-style baseline never preprocesses and ignores it). The sink
/// is supported by the paper's algorithms (edge-iterator family and CETRIC);
/// passing one with a baseline algorithm returns a CountResult whose
/// error == RunError::kSinkUnsupported without running anything — the check
/// precedes every charge. The views are never mutated, so any number of
/// queries may run concurrently over one view set, each on its own Simulator.
CountResult dispatch_algorithm(net::Simulator& sim, const std::vector<DistGraph>& views,
                               const RunSpec& spec, const TriangleSink* sink = nullptr,
                               const Preprocess& preprocess = {});

}  // namespace katric::core
