// Quickstart: generate a graph, build a katric::Engine session, count its
// triangles on a simulated distributed machine with CETRIC, and inspect the
// unified Report — the five-minute tour of the public API.

#include <iostream>

#include "katric.hpp"

int main() {
    using namespace katric;

    // 1. Build an input graph. Any CsrGraph works: generated (gen::*),
    //    loaded from disk (graph::read_edge_list_text / read_metis), or
    //    assembled from an EdgeList.
    const graph::VertexId n = 1 << 14;
    const auto graph = gen::generate_rgg2d_local(
        n, gen::rgg2d_radius_for_degree(n, 16.0), /*seed=*/42);
    std::cout << "input: random geometric graph, n=" << graph.num_vertices()
              << ", m=" << graph.num_edges() << "\n";

    // 2. One configuration surface: algorithm, simulated PE count, machine
    //    model, kernels — all in katric::Config (presets and a full CLI
    //    round-trip included; see Config::preset / Config::from_flags).
    Config config;
    config.algorithm = core::Algorithm::kCetric;  // the paper's contraction variant
    config.num_ranks = 16;                        // simulated MPI ranks
    config.network = net::NetworkConfig::supermuc_like();

    // 3. Build the distributed state once — partition + every PE's local
    //    view — then query. The same engine could now also serve lcc(),
    //    enumerate(), approx_count(), or open_stream() with no rebuild.
    Engine engine(graph, config);
    const Report report = engine.count();

    std::cout << "triangles:            " << report.count.triangles << "\n"
              << "  found locally:      " << report.count.local_phase_triangles
              << " (type 1+2, zero communication)\n"
              << "  found globally:     " << report.count.global_phase_triangles
              << " (type 3, on the contracted cut graph)\n"
              << "simulated time:       " << report.count.total_time << " s\n"
              << "  preprocessing:      " << report.count.preprocessing_time << " s\n"
              << "  local phase:        " << report.count.local_time << " s\n"
              << "  contraction:        " << report.count.contraction_time << " s\n"
              << "  global phase:       " << report.count.global_time << " s\n"
              << "bottleneck volume:    " << report.count.max_words_sent << " words\n"
              << "max msgs from one PE: " << report.count.max_messages_sent << "\n"
              << "kernel ops (total):   " << report.total_compute_ops << "\n";

    // 4. Every Report speaks JSON through the one shared emitter.
    std::cout << "\nas JSON:\n" << report.to_json();

    // 5. Sanity-check against the sequential reference.
    const auto reference = seq::count_edge_iterator(graph).triangles;
    std::cout << "sequential reference: " << reference
              << (reference == report.count.triangles ? "  [match]" : "  [MISMATCH!]")
              << "\n";
    return reference == report.count.triangles ? 0 : 1;
}
