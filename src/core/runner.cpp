#include "core/runner.hpp"

#include <utility>

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

CountResult dispatch_algorithm(net::Simulator& sim, std::vector<DistGraph>& views,
                               const RunSpec& spec, const TriangleSink* sink,
                               const Preprocess& preprocess) {
    if (sink != nullptr && !algorithm_supports_sink(spec.algorithm)) {
        // Reject before the build hoist: nothing runs, nothing is charged.
        CountResult result;
        result.error = RunError::kSinkUnsupported;
        return result;
    }
    // Hoist the one view-mutating step (a kBuild preprocessing pass), then
    // run the read-only body on the const surface.
    const Preprocess effective =
        hoist_preprocess_build(sim, views, spec.algorithm, spec.options, preprocess);
    return dispatch_algorithm(sim, std::as_const(views), spec, sink, effective);
}

CountResult dispatch_algorithm(net::Simulator& sim, const std::vector<DistGraph>& views,
                               const RunSpec& spec, const TriangleSink* sink,
                               const Preprocess& preprocess) {
    if (sink != nullptr && !algorithm_supports_sink(spec.algorithm)) {
        // Typed failure instead of an assertion: nothing runs, nothing is
        // charged to the machine (built, replayed or skipped preprocessing
        // alike), and the caller sees error != kNone.
        CountResult result;
        result.error = RunError::kSinkUnsupported;
        return result;
    }
    switch (spec.algorithm) {
        case Algorithm::kTricStyle: return run_tric_style(sim, views, spec.options);
        case Algorithm::kHavoqgtStyle:
            return run_havoqgt_style(sim, views, spec.options, preprocess);
        default:
            return run_exchange(sim, views, spec.options, spec.algorithm, sink,
                                preprocess);
    }
}

}  // namespace katric::core
