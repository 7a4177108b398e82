#include "stream/stream_runner.hpp"

namespace katric::stream {

std::vector<DynamicDistGraph> distribute_dynamic(const graph::CsrGraph& initial,
                                                 const graph::Partition1D& partition) {
    std::vector<DynamicDistGraph> views;
    views.reserve(partition.num_ranks());
    for (Rank r = 0; r < partition.num_ranks(); ++r) {
        views.push_back(DynamicDistGraph::from_global(initial, partition, r));
    }
    return views;
}

}  // namespace katric::stream
