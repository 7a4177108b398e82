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

/// Dispatches on spec.algorithm over pre-built per-rank views. The sink is
/// supported by the paper's algorithms (edge-iterator family and CETRIC);
/// passing one with a baseline algorithm returns a CountResult whose
/// error == RunError::kSinkUnsupported without running anything — the check
/// precedes every build or charge. `preprocess` selects build vs.
/// charge/skip of the preprocessing front half for the algorithms that own
/// one (the TriC-style baseline never preprocesses and ignores it).
///
/// The const overload is katric::Engine's surface: it never mutates the
/// views (preprocess.mode must be kCharge or kSkip — or the algorithm
/// TriC-style, which ignores it), so any number of queries may run it
/// concurrently over one preprocessed view set, each on its own Simulator.
/// The non-const overload additionally accepts kBuild: it hoists the one
/// view-mutating step (core::hoist_preprocess_build) and then runs the same
/// const body — the one-shot path (fresh views, preprocessing built and
/// charged in-run) every Engine report is tested against.
CountResult dispatch_algorithm(net::Simulator& sim, const std::vector<DistGraph>& views,
                               const RunSpec& spec, const TriangleSink* sink = nullptr,
                               const Preprocess& preprocess = {});
CountResult dispatch_algorithm(net::Simulator& sim, std::vector<DistGraph>& views,
                               const RunSpec& spec, const TriangleSink* sink = nullptr,
                               const Preprocess& preprocess = {});

}  // namespace katric::core
