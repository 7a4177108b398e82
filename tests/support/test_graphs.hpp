#pragma once

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "gen/gnm.hpp"
#include "gen/grid.hpp"
#include "gen/rgg2d.hpp"
#include "gen/rhg.hpp"
#include "gen/rmat.hpp"
#include "graph/builder.hpp"
#include "graph/csr_graph.hpp"

namespace katric::test {

/// Canned small graphs with known triangle counts.
inline graph::CsrGraph triangle_graph() {
    graph::EdgeList e;
    e.add(0, 1);
    e.add(1, 2);
    e.add(0, 2);
    return graph::build_undirected(std::move(e));
}

inline graph::CsrGraph complete_graph(graph::VertexId n) {
    graph::EdgeList e;
    for (graph::VertexId u = 0; u < n; ++u) {
        for (graph::VertexId v = u + 1; v < n; ++v) { e.add(u, v); }
    }
    return graph::build_undirected(std::move(e), n);
}

inline graph::CsrGraph path_graph(graph::VertexId n) {
    graph::EdgeList e;
    for (graph::VertexId v = 0; v + 1 < n; ++v) { e.add(v, v + 1); }
    return graph::build_undirected(std::move(e), n);
}

inline graph::CsrGraph cycle_graph(graph::VertexId n) {
    graph::EdgeList e;
    for (graph::VertexId v = 0; v < n; ++v) { e.add(v, (v + 1) % n); }
    return graph::build_undirected(std::move(e), n);
}

/// Two triangles sharing vertex 2.
inline graph::CsrGraph bowtie_graph() {
    graph::EdgeList e;
    e.add(0, 1);
    e.add(0, 2);
    e.add(1, 2);
    e.add(2, 3);
    e.add(2, 4);
    e.add(3, 4);
    return graph::build_undirected(std::move(e));
}

/// The Petersen graph: 10 vertices, 15 edges, girth 5 — zero triangles.
inline graph::CsrGraph petersen_graph() {
    graph::EdgeList e;
    for (graph::VertexId v = 0; v < 5; ++v) {
        e.add(v, (v + 1) % 5);          // outer cycle
        e.add(5 + v, 5 + (v + 2) % 5);  // inner pentagram
        e.add(v, 5 + v);                // spokes
    }
    return graph::build_undirected(std::move(e), 10);
}

/// n = 200 vertices, not a multiple of 64, so the ghost bitmap's last word
/// is partial. Vertices 0..4 reach 63, 64, 127, 128 and n−1: the first and
/// last bit of a word, the first bit of the next, and the last bit of the
/// partial last word. Chords among those IDs close triangles across them.
inline graph::CsrGraph word_boundary_graph() {
    constexpr graph::VertexId n = 200;
    graph::EdgeList e;
    const std::vector<graph::VertexId> boundary_ids{63, 64, 127, 128, n - 1};
    for (graph::VertexId i = 0; i < boundary_ids.size(); ++i) {
        e.add(i, boundary_ids[i]);
        e.add(i, boundary_ids[(i + 1) % boundary_ids.size()]);
        e.add(i, i + 1);
    }
    e.add(63, 64);
    e.add(127, 128);
    e.add(128, n - 1);
    e.add(62, 63);
    e.add(65, n - 2);
    return graph::build_undirected(std::move(e), n);
}

/// `hub` adjacent to every other of n vertices. The hub has the largest
/// degree, so every leaf points at it. With `rim`, leaf v is also adjacent
/// to the next leaf (cyclically, skipping the hub): a wheel, whose n − 1
/// triangles all contain the hub.
inline graph::CsrGraph star_graph(graph::VertexId n, graph::VertexId hub, bool rim = false) {
    graph::EdgeList e;
    std::vector<graph::VertexId> leaves;
    for (graph::VertexId v = 0; v < n; ++v) {
        if (v != hub) {
            e.add(hub, v);
            leaves.push_back(v);
        }
    }
    if (rim) {
        for (std::size_t i = 0; i < leaves.size(); ++i) {
            e.add(leaves[i], leaves[(i + 1) % leaves.size()]);
        }
    }
    return graph::build_undirected(std::move(e), n);
}

/// One small instance per generator family, for parameterized sweeps.
struct FamilyCase {
    std::string name;
    graph::CsrGraph graph;
};

/// A case's name and how to build it, so a sweep that needs only the names
/// (a cell list, a test-name generator) builds no graph.
struct CaseBuilder {
    std::string name;
    std::function<graph::CsrGraph()> build;
};

inline std::vector<FamilyCase> build_cases(const std::vector<CaseBuilder>& builders) {
    std::vector<FamilyCase> cases;
    for (const auto& b : builders) { cases.push_back({b.name, b.build()}); }
    return cases;
}

inline std::vector<CaseBuilder> family_builders() {
    return {
        {"gnm", [] { return gen::generate_gnm(256, 1024, 42); }},
        {"rgg2d",
         [] {
             return gen::generate_rgg2d(256, gen::rgg2d_radius_for_degree(256, 8.0), 7);
         }},
        {"rhg", [] { return gen::generate_rhg(256, 8.0, 2.8, 9); }},
        {"rmat", [] { return gen::generate_rmat(8, 1024, 11); }},
        {"grid", [] { return gen::generate_grid_road(16, 16, 0.9, 0.2, 13); }},
        {"complete", [] { return complete_graph(24); }},
        {"petersen", [] { return petersen_graph(); }},
    };
}

inline std::vector<FamilyCase> family_cases() { return build_cases(family_builders()); }

/// The oracle harness's adversarial corpus: no vertices, no edges, one edge,
/// every triangle on one hub (on the first, a middle or the last rank), all
/// wedges open, duplicate edges and self-loops in the input, IDs on 64-bit
/// word boundaries, a heavily skewed R-MAT. At 16 ranks most leave ranks
/// that own no vertex.
inline std::vector<CaseBuilder> adversarial_builders() {
    std::vector<CaseBuilder> cases;
    cases.push_back(
        {"empty", [] { return graph::build_undirected(graph::EdgeList{}, 0); }});
    cases.push_back(
        {"edgeless", [] { return graph::build_undirected(graph::EdgeList{}, 50); }});
    cases.push_back({"single_edge", [] { return path_graph(2); }});
    constexpr graph::VertexId kStarN = 33;
    for (const auto& [where, hub] : {std::pair{"first", graph::VertexId{0}},
                                     std::pair{"mid", kStarN / 2},
                                     std::pair{"last", kStarN - 1}}) {
        cases.push_back({std::string("star_hub_") + where,
                         [hub = hub] { return star_graph(kStarN, hub); }});
        cases.push_back({std::string("wheel_hub_") + where,
                         [hub = hub] { return star_graph(kStarN, hub, /*rim=*/true); }});
    }
    cases.push_back({"bipartite_6x9", [] {
                         graph::EdgeList bipartite;
                         for (graph::VertexId u = 0; u < 6; ++u) {
                             for (graph::VertexId v = 6; v < 15; ++v) {
                                 bipartite.add(u, v);
                             }
                         }
                         return graph::build_undirected(std::move(bipartite));
                     }});
    // A triangle and a pendant edge, each edge in both directions, one twice,
    // and self-loops, one twice: the builder folds it to 4 edges.
    cases.push_back({"duplicates_and_self_loops", [] {
                         graph::EdgeList messy({{0, 1}, {1, 0}, {1, 2}, {2, 1}, {2, 0},
                                                {0, 2}, {2, 3}, {3, 2}, {0, 1}, {0, 0},
                                                {3, 3}, {3, 3}});
                         return graph::build_undirected(std::move(messy));
                     }});
    cases.push_back({"word_boundary", [] { return word_boundary_graph(); }});
    cases.push_back({"rmat_high_skew", [] {
                         // Graph500 uses 0.57/0.19/0.19.
                         const gen::RmatParams skewed{0.75, 0.1, 0.1, 0.05};
                         return gen::generate_rmat(8, 2048, 17, skewed);
                     }});
    return cases;
}

inline std::vector<FamilyCase> adversarial_cases() {
    return build_cases(adversarial_builders());
}

}  // namespace katric::test
