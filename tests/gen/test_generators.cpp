#include <gtest/gtest.h>

#include "util/assert.hpp"

#include <cmath>

#include "gen/gnm.hpp"
#include "gen/grid.hpp"
#include "gen/rgg2d.hpp"
#include "gen/rhg.hpp"
#include "gen/rmat.hpp"
#include "graph/builder.hpp"
#include "graph/graph_stats.hpp"
#include "graph/partition.hpp"
#include "seq/edge_iterator.hpp"
#include "util/hash.hpp"

namespace katric::gen {
namespace {

using graph::CsrGraph;
using graph::VertexId;

TEST(Gnm, DeterministicAndSeedSensitive) {
    const auto a = generate_gnm(512, 4096, 1);
    const auto b = generate_gnm(512, 4096, 1);
    const auto c = generate_gnm(512, 4096, 2);
    EXPECT_EQ(a.targets(), b.targets());
    EXPECT_NE(a.targets(), c.targets());
}

TEST(Gnm, EdgeCountNearM) {
    const auto g = generate_gnm(4096, 4096 * 8, 7);
    EXPECT_EQ(g.num_vertices(), 4096u);
    // Duplicate/self-loop removal loses only a small fraction at this density.
    EXPECT_GT(g.num_edges(), 4096u * 8 * 95 / 100);
    EXPECT_LE(g.num_edges(), 4096u * 8);
}

TEST(Gnm, ChunksComposeToWhole) {
    const VertexId n = 256;
    const graph::EdgeId m = 2048;
    graph::EdgeList combined;
    for (std::uint64_t chunk = 0; chunk < kDefaultChunks; ++chunk) {
        combined.append(generate_gnm_chunk(n, m, 5, chunk, kDefaultChunks));
    }
    const auto whole = generate_gnm(n, m, 5);
    const auto recombined = graph::build_undirected(std::move(combined), n);
    EXPECT_EQ(recombined.targets(), whole.targets());
}

TEST(Gnm, ChunkSlotsPartitionEdgeRange) {
    // Chunk boundaries must cover [0, m) without overlap: total candidate
    // count equals m minus self-loops.
    const VertexId n = 128;
    const graph::EdgeId m = 1000;
    std::size_t total = 0;
    for (std::uint64_t chunk = 0; chunk < 7; ++chunk) {
        total += generate_gnm_chunk(n, m, 3, chunk, 7).size();
    }
    EXPECT_LE(total, m);
    EXPECT_GT(total, m * 98 / 100);  // only self-loop slots missing
}

TEST(Rgg2d, RadiusFormulaHitsTargetDegree) {
    const VertexId n = 4096;
    const double target = 12.0;
    const auto g = generate_rgg2d(n, rgg2d_radius_for_degree(n, target), 13);
    const double avg = 2.0 * static_cast<double>(g.num_edges()) / static_cast<double>(n);
    // Border effects reduce the expectation slightly.
    EXPECT_NEAR(avg, target, target * 0.25);
}

TEST(Rgg2d, AdjacencyIffWithinRadius) {
    // Re-derive coordinates from the generator's hashing scheme and verify
    // the geometric predicate for every pair of a small instance.
    const VertexId n = 128;
    const double radius = rgg2d_radius_for_degree(n, 10.0);
    const std::uint64_t seed = 4242;
    const auto g = generate_rgg2d(n, radius, seed);
    auto coord = [&](VertexId i, bool y) {
        return static_cast<double>(katric::hash64_seeded(2 * i + (y ? 1 : 0), seed) >> 11)
               * 0x1.0p-53;
    };
    for (VertexId i = 0; i < n; ++i) {
        for (VertexId j = i + 1; j < n; ++j) {
            const double dx = coord(i, false) - coord(j, false);
            const double dy = coord(i, true) - coord(j, true);
            const bool within = dx * dx + dy * dy <= radius * radius;
            EXPECT_EQ(g.has_edge(i, j), within) << i << "," << j;
        }
    }
}

TEST(Rgg2d, HighClustering) {
    const auto g = generate_rgg2d(2048, rgg2d_radius_for_degree(2048, 12.0), 3);
    const auto stats = graph::compute_stats(g);
    EXPECT_GT(stats.m, 0u);
    // Geometric graphs have constant-fraction closed wedges; just assert
    // the graph is non-degenerate and wedge-rich.
    EXPECT_GT(stats.wedges, stats.m);
}

TEST(Rhg, DeterministicPowerLawFamily) {
    const auto a = generate_rhg(2048, 8.0, 2.8, 5);
    const auto b = generate_rhg(2048, 8.0, 2.8, 5);
    EXPECT_EQ(a.targets(), b.targets());
    const auto stats = graph::compute_stats(a);
    const double avg = stats.avg_degree;
    EXPECT_GT(avg, 3.0);
    EXPECT_LT(avg, 20.0);
    // Heavy tail: max degree far above the average.
    EXPECT_GT(static_cast<double>(stats.max_degree), 4.0 * avg);
}

TEST(Rhg, GammaControlsTail) {
    // Smaller γ ⇒ heavier tail ⇒ larger hubs at equal average degree.
    const auto heavy = generate_rhg(4096, 8.0, 2.2, 9);
    const auto light = generate_rhg(4096, 8.0, 3.5, 9);
    EXPECT_GT(graph::compute_stats(heavy).max_degree,
              graph::compute_stats(light).max_degree);
}

TEST(Rhg, PairwisePredicateMatchesBruteForceOnTinyInstance) {
    // The banded construction must produce exactly the distance-threshold
    // graph; check against an O(n²) recomputation.
    const VertexId n = 96;
    const double avg_degree = 6.0;
    const double gamma = 2.8;
    const std::uint64_t seed = 31;
    const auto g = generate_rhg(n, avg_degree, gamma, seed);

    const double alpha = (gamma - 1.0) / 2.0;
    const double xi = alpha / (alpha - 0.5);
    const double R = 2.0 * std::log(static_cast<double>(n) * (2.0 / 3.14159265358979)
                                    * xi * xi / avg_degree);
    auto unit = [&](std::uint64_t h) { return static_cast<double>(h >> 11) * 0x1.0p-53; };
    std::vector<double> r(n);
    std::vector<double> t(n);
    for (VertexId i = 0; i < n; ++i) {
        const double u = unit(katric::hash64_seeded(2 * i, seed));
        r[i] = std::acosh(1.0 + u * (std::cosh(alpha * R) - 1.0)) / alpha;
        t[i] = 2.0 * 3.14159265358979 * unit(katric::hash64_seeded(2 * i + 1, seed));
    }
    for (VertexId i = 0; i < n; ++i) {
        for (VertexId j = i + 1; j < n; ++j) {
            double dt = std::abs(t[i] - t[j]);
            dt = std::min(dt, 2.0 * 3.14159265358979 - dt);
            const double cosh_d =
                std::cosh(r[i]) * std::cosh(r[j]) - std::sinh(r[i]) * std::sinh(r[j]) * std::cos(dt);
            EXPECT_EQ(g.has_edge(i, j), cosh_d <= std::cosh(R)) << i << ' ' << j;
        }
    }
}

TEST(Rmat, DeterministicSkewedFamily) {
    const auto a = generate_rmat(10, 8192, 17);
    const auto b = generate_rmat(10, 8192, 17);
    EXPECT_EQ(a.targets(), b.targets());
    EXPECT_EQ(a.num_vertices(), 1024u);
    const auto stats = graph::compute_stats(a);
    EXPECT_GT(static_cast<double>(stats.max_degree), 3.0 * stats.avg_degree);
}

TEST(Rmat, ChunksComposeToWhole) {
    graph::EdgeList combined;
    for (std::uint64_t chunk = 0; chunk < kDefaultChunks; ++chunk) {
        combined.append(generate_rmat_chunk(8, 1024, 3, chunk, kDefaultChunks));
    }
    const auto whole = generate_rmat(8, 1024, 3);
    const auto recombined = graph::build_undirected(std::move(combined), 256);
    EXPECT_EQ(recombined.targets(), whole.targets());
}

TEST(Rmat, ProbabilitiesMustSumToOne) {
    EXPECT_THROW(generate_rmat(8, 64, 1, RmatParams{0.5, 0.5, 0.5, 0.5}),
                 katric::assertion_error);
}

TEST(GridRoad, FullLatticeDegrees) {
    const auto g = generate_grid_road(8, 8, 1.0, 0.0, 1);
    EXPECT_EQ(g.num_vertices(), 64u);
    EXPECT_EQ(g.num_edges(), 2u * 8 * 7);  // rows·(cols−1) + cols·(rows−1)
    EXPECT_EQ(g.degree(0), 2u);            // corner
    EXPECT_EQ(g.degree(9), 4u);            // interior
}

TEST(GridRoad, DiagonalsCreateFewTriangles) {
    const auto g = generate_grid_road(64, 64, 0.95, 0.05, 2);
    const auto stats = graph::compute_stats(g);
    EXPECT_LT(stats.avg_degree, 5.0);
    // Road-like: wedge count small, max degree bounded by lattice geometry.
    EXPECT_LE(stats.max_degree, 8u);
}

TEST(GridRoad, NoDiagonalsNoTriangles) {
    const auto g = generate_grid_road(16, 16, 0.9, 0.0, 3);
    EXPECT_EQ(seq::count_brute_force(g), 0u);  // the lattice is bipartite
}

}  // namespace
}  // namespace katric::gen

namespace katric::gen {
namespace {

using graph::Partition1D;

graph::EdgeId cut_edges_under(const CsrGraph& g, const Partition1D& part) {
    graph::EdgeId cut = 0;
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
        for (VertexId u : g.neighbors(v)) {
            if (v < u && part.rank_of(v) != part.rank_of(u)) { ++cut; }
        }
    }
    return cut;
}

TEST(Rgg2dLocal, SameGraphUpToRelabeling) {
    const VertexId n = 1024;
    const double r = rgg2d_radius_for_degree(n, 12.0);
    const auto plain = generate_rgg2d(n, r, 7);
    const auto local = generate_rgg2d_local(n, r, 7);
    EXPECT_EQ(local.num_vertices(), plain.num_vertices());
    EXPECT_EQ(local.num_edges(), plain.num_edges());
    // Degree multiset is invariant under relabeling.
    std::vector<graph::Degree> da(n), db(n);
    for (VertexId v = 0; v < n; ++v) {
        da[v] = plain.degree(v);
        db[v] = local.degree(v);
    }
    std::sort(da.begin(), da.end());
    std::sort(db.begin(), db.end());
    EXPECT_EQ(da, db);
}

TEST(Rgg2dLocal, SpatialOrderShrinksCut) {
    const VertexId n = 4096;
    const double r = rgg2d_radius_for_degree(n, 16.0);
    const auto plain = generate_rgg2d(n, r, 3);
    const auto local = generate_rgg2d_local(n, r, 3);
    const auto part = Partition1D::uniform(n, 8);
    EXPECT_LT(cut_edges_under(local, part), cut_edges_under(plain, part) / 2);
}

TEST(RhgLocal, AngularOrderShrinksCut) {
    const VertexId n = 4096;
    const auto plain = generate_rhg(n, 12.0, 2.8, 5);
    const auto local = generate_rhg_local(n, 12.0, 2.8, 5);
    EXPECT_EQ(local.num_edges(), plain.num_edges());
    const auto part = Partition1D::uniform(n, 8);
    EXPECT_LT(cut_edges_under(local, part), cut_edges_under(plain, part));
}

}  // namespace
}  // namespace katric::gen
