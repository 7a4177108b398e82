#include "stream/stream_runner.hpp"

namespace katric::stream {

std::vector<DynamicDistGraph> distribute_dynamic(const graph::CsrGraph& initial,
                                                 const graph::Partition1D& partition) {
    std::vector<DynamicDistGraph> views;
    views.reserve(partition.num_ranks());
    for (Rank r = 0; r < partition.num_ranks(); ++r) {
        // One rank's static view at a time: it lives only until its rows are
        // copied, so no second full copy of the graph is ever alive.
        auto view = graph::DistGraph::from_global(initial, partition, r);
        view.fill_ghost_degrees_from(initial);
        views.push_back(DynamicDistGraph::from_view(view));
    }
    return views;
}

}  // namespace katric::stream
