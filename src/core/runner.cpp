#include "core/runner.hpp"

#include <utility>

#include "core/cetric.hpp"
#include "core/dist_edge_iterator.hpp"
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
        case Algorithm::kEdgeIteratorUnbuffered:
            return run_edge_iterator(sim, views, spec.options,
                                     EdgeIteratorMode{.buffered = false, .indirect = false},
                                     sink, preprocess);
        case Algorithm::kDitric:
            return run_edge_iterator(sim, views, spec.options,
                                     EdgeIteratorMode{.buffered = true, .indirect = false},
                                     sink, preprocess);
        case Algorithm::kDitric2:
            return run_edge_iterator(sim, views, spec.options,
                                     EdgeIteratorMode{.buffered = true, .indirect = true},
                                     sink, preprocess);
        case Algorithm::kCetric:
            return run_cetric(sim, views, spec.options, /*indirect=*/false, sink,
                              preprocess);
        case Algorithm::kCetric2:
            return run_cetric(sim, views, spec.options, /*indirect=*/true, sink,
                              preprocess);
        case Algorithm::kTricStyle: return run_tric_style(sim, views, spec.options);
        case Algorithm::kHavoqgtStyle:
            return run_havoqgt_style(sim, views, spec.options, preprocess);
    }
    KATRIC_THROW("unknown algorithm");
}

}  // namespace katric::core
