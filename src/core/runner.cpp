#include "core/runner.hpp"

#include "core/exchange.hpp"
#include "core/havoqgt_baseline.hpp"
#include "core/tric_baseline.hpp"
#include "util/assert.hpp"

namespace katric::core {

graph::Partition1D make_partition(const graph::CsrGraph& global, const RunSpec& spec) {
    switch (spec.partition) {
        case PartitionStrategy::kUniformVertices:
            return graph::Partition1D::uniform(global.num_vertices(), spec.num_ranks);
        case PartitionStrategy::kBalancedEdges:
            return graph::Partition1D::balanced_by_edges(global, spec.num_ranks);
    }
    KATRIC_THROW("unknown partition strategy");
}

CountResult dispatch_algorithm(net::Simulator& sim, const std::vector<DistGraph>& views,
                               const RunSpec& spec, const TriangleSink* sink,
                               const Preprocess& preprocess) {
    if (sink != nullptr && !algorithm_supports_sink(spec.algorithm)) {
        // Typed failure instead of an assertion: nothing runs, nothing is
        // charged to the machine, and the caller sees error != kNone.
        CountResult result;
        result.error = RunError::kSinkUnsupported;
        return result;
    }
    if (const auto prep = preprocess_options(spec.algorithm, spec.options)) {
        apply_preprocessing(sim, views, *prep, preprocess);
    }
    switch (spec.algorithm) {
        case Algorithm::kTricStyle: return run_tric_style(sim, views, spec.options);
        case Algorithm::kHavoqgtStyle: return run_havoqgt_style(sim, views, spec.options);
        default: return run_exchange(sim, views, spec.options, spec.algorithm, sink);
    }
}

}  // namespace katric::core
