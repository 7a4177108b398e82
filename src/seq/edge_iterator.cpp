#include "seq/edge_iterator.hpp"

#include "graph/orientation.hpp"
#include "seq/adaptive_intersect.hpp"
#include "util/assert.hpp"

namespace katric::seq {

using graph::CsrGraph;
using graph::VertexId;

std::uint64_t count_brute_force(const CsrGraph& undirected) {
    KATRIC_ASSERT(!undirected.is_oriented());
    const VertexId n = undirected.num_vertices();
    std::uint64_t triangles = 0;
    for (VertexId u = 0; u < n; ++u) {
        for (VertexId v = u + 1; v < n; ++v) {
            if (!undirected.has_edge(u, v)) { continue; }
            for (VertexId w = v + 1; w < n; ++w) {
                if (undirected.has_edge(u, w) && undirected.has_edge(v, w)) { ++triangles; }
            }
        }
    }
    return triangles;
}

SeqCountResult count_oriented(const CsrGraph& oriented, IntersectKind kind) {
    KATRIC_ASSERT(oriented.is_oriented());
    const AdaptiveIntersect isect(kind);
    SeqCountResult result;
    for (VertexId v = 0; v < oriented.num_vertices(); ++v) {
        const auto out_v = oriented.neighbors(v);
        const auto row_v = isect.fix(out_v);
        for (VertexId u : out_v) {
            const auto r = row_v.count(oriented.neighbors(u));
            result.triangles += r.count;
            result.ops += r.ops;
        }
    }
    return result;
}

SeqCountResult count_edge_iterator(const CsrGraph& undirected, IntersectKind kind) {
    return count_oriented(graph::orient_by_degree(undirected), kind);
}

SeqCountResult count_wedge_check(const CsrGraph& undirected) {
    const CsrGraph oriented = graph::orient_by_degree(undirected);
    SeqCountResult result;
    for (VertexId v = 0; v < oriented.num_vertices(); ++v) {
        const auto out_v = oriented.neighbors(v);
        for (std::size_t i = 0; i < out_v.size(); ++i) {
            for (std::size_t j = i + 1; j < out_v.size(); ++j) {
                // Wedge (v,u),(v,w): the closing edge may be oriented either
                // way; checking the undirected graph covers both.
                result.ops += 64;  // one adjacency probe ≈ log n comparisons
                if (undirected.has_edge(out_v[i], out_v[j])) { ++result.triangles; }
            }
        }
    }
    return result;
}

std::vector<std::uint64_t> per_vertex_triangles(const CsrGraph& undirected,
                                                IntersectKind kind) {
    const CsrGraph oriented = graph::orient_by_degree(undirected);
    const AdaptiveIntersect isect(kind);
    std::vector<std::uint64_t> delta(undirected.num_vertices(), 0);
    auto& closing = collect_scratch();
    for (VertexId v = 0; v < oriented.num_vertices(); ++v) {
        const auto out_v = oriented.neighbors(v);
        const auto row_v = isect.fix(out_v, v);
        for (VertexId u : out_v) {
            closing.clear();
            row_v.collect(oriented.neighbors(u), closing, u);
            delta[v] += closing.size();
            delta[u] += closing.size();
            for (VertexId w : closing) { ++delta[w]; }
        }
    }
    return delta;
}

}  // namespace katric::seq
