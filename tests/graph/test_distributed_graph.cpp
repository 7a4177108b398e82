#include "graph/distributed_graph.hpp"

#include <gtest/gtest.h>

#include "util/assert.hpp"

#include <algorithm>
#include <limits>
#include <set>

#include "core/algorithm.hpp"
#include "graph/builder.hpp"
#include "graph/orientation.hpp"
#include "net/simulator.hpp"
#include "seq/edge_iterator.hpp"
#include "support/oracle.hpp"
#include "support/test_graphs.hpp"

namespace katric::graph {
namespace {

/// Every rank's view with ghost degrees read from the global graph.
std::vector<DistGraph> preprocess_by_shortcut(const CsrGraph& global,
                                              const Partition1D& partition) {
    auto views = distribute(global, partition);
    for (auto& view : views) {
        view.fill_ghost_degrees_from(global);
        view.build_oriented();
    }
    return views;
}

/// Every rank's view preprocessed the way an Engine does it: the
/// ghost-degree exchange on a simulated machine, then orientation.
std::vector<DistGraph> preprocess_by_exchange(const CsrGraph& global,
                                              const Partition1D& partition) {
    auto views = distribute(global, partition);
    net::Simulator sim(partition.num_ranks(), net::NetworkConfig{});
    core::run_preprocessing(sim, views, core::AlgorithmOptions{});
    return views;
}

std::vector<VertexId> to_vector(std::span<const VertexId> row) {
    return {row.begin(), row.end()};
}

/// The two preprocessing paths must leave identical views.
void expect_views_equal(const std::vector<DistGraph>& actual,
                        const std::vector<DistGraph>& expected) {
    ASSERT_EQ(actual.size(), expected.size());
    for (std::size_t r = 0; r < actual.size(); ++r) {
        SCOPED_TRACE("rank " + std::to_string(r));
        const DistGraph& a = actual[r];
        const DistGraph& e = expected[r];
        ASSERT_TRUE(a.ghost_degrees_ready());
        ASSERT_TRUE(a.oriented_built());
        ASSERT_EQ(a.ghost_ids(), e.ghost_ids());
        EXPECT_EQ(a.num_cut_edges(), e.num_cut_edges());
        for (std::size_t g = 0; g < a.num_ghosts(); ++g) {
            EXPECT_EQ(a.degree(a.ghost_id(g)), e.degree(e.ghost_id(g))) << "ghost " << g;
            EXPECT_EQ(to_vector(a.ghost_out_neighbors(g)), to_vector(e.ghost_out_neighbors(g)))
                << "ghost " << a.ghost_id(g);
        }
        for (VertexId v = a.first_local(); v < a.first_local() + a.num_local(); ++v) {
            EXPECT_EQ(to_vector(a.out_neighbors(v)), to_vector(e.out_neighbors(v))) << v;
            EXPECT_EQ(to_vector(a.contracted_out_neighbors(v)),
                      to_vector(e.contracted_out_neighbors(v)))
                << v;
        }
    }
}

/// Checks every preprocessed view against the global graph: the ghosts are
/// exactly the non-local neighbors, sorted and unique, with their global
/// degrees; the cut-edge count is the number of non-local targets; and the
/// three oriented rows are the global degree orientation restricted to the
/// view.
void expect_views_match_global(const CsrGraph& global, const std::vector<DistGraph>& views) {
    const CsrGraph oriented = orient_by_degree(global);
    for (const auto& view : views) {
        SCOPED_TRACE("rank " + std::to_string(view.rank()));
        std::set<VertexId> ghosts;
        EdgeId cut = 0;
        for (VertexId v = view.first_local(); v < view.first_local() + view.num_local();
             ++v) {
            for (VertexId u : global.neighbors(v)) {
                if (!view.is_local(u)) {
                    ghosts.insert(u);
                    ++cut;
                }
            }
            std::vector<VertexId> contracted;
            for (VertexId u : oriented.neighbors(v)) {
                if (!view.is_local(u)) { contracted.push_back(u); }
            }
            EXPECT_EQ(to_vector(view.out_neighbors(v)), to_vector(oriented.neighbors(v)))
                << v;
            EXPECT_EQ(to_vector(view.contracted_out_neighbors(v)), contracted) << v;
        }
        EXPECT_EQ(view.ghost_ids(), std::vector<VertexId>(ghosts.begin(), ghosts.end()));
        EXPECT_EQ(view.num_cut_edges(), cut);
        for (std::size_t g = 0; g < view.num_ghosts(); ++g) {
            const VertexId id = view.ghost_id(g);
            EXPECT_EQ(view.degree(id), global.degree(id));
            std::vector<VertexId> rewired;
            for (VertexId u : oriented.neighbors(id)) {
                if (view.is_local(u)) { rewired.push_back(u); }
            }
            EXPECT_EQ(to_vector(view.ghost_out_neighbors(g)), rewired) << "ghost " << id;
            EXPECT_EQ(to_vector(view.a_set(id)), rewired) << "ghost " << id;
        }
    }
}

/// Both preprocessing paths, each checked against the global graph and
/// against the other.
void expect_both_paths_exact(const CsrGraph& global, const Partition1D& partition) {
    const auto shortcut = preprocess_by_shortcut(global, partition);
    const auto exchanged = preprocess_by_exchange(global, partition);
    expect_views_match_global(global, shortcut);
    expect_views_equal(exchanged, shortcut);
}

struct DistCase {
    std::size_t family_index;
    Rank p;
};

std::string dist_case_name(const ::testing::TestParamInfo<DistCase>& info) {
    static const auto cases = katric::test::family_cases();
    return cases[info.param.family_index].name + "_p" + std::to_string(info.param.p);
}

class DistGraphTest : public ::testing::TestWithParam<DistCase> {
protected:
    void SetUp() override {
        static const auto cases = katric::test::family_cases();
        global_ = &cases[GetParam().family_index].graph;
        partition_ = Partition1D::uniform(global_->num_vertices(), GetParam().p);
        views_ = distribute(*global_, partition_);
        for (auto& view : views_) {
            view.fill_ghost_degrees_from(*global_);
            view.build_oriented();
        }
    }

    const CsrGraph* global_ = nullptr;
    Partition1D partition_;
    std::vector<DistGraph> views_;
};

TEST_P(DistGraphTest, LocalDegreesAreExact) {
    for (const auto& view : views_) {
        for (VertexId v = view.first_local(); v < view.first_local() + view.num_local();
             ++v) {
            EXPECT_EQ(view.degree(v), global_->degree(v));
        }
    }
}

TEST_P(DistGraphTest, GhostsAreExactlyNonLocalNeighbors) {
    for (const auto& view : views_) {
        std::set<VertexId> expected;
        for (VertexId v = view.first_local(); v < view.first_local() + view.num_local();
             ++v) {
            for (VertexId u : global_->neighbors(v)) {
                if (!view.is_local(u)) { expected.insert(u); }
            }
        }
        EXPECT_EQ(view.num_ghosts(), expected.size());
        for (std::size_t g = 0; g < view.num_ghosts(); ++g) {
            EXPECT_TRUE(expected.count(view.ghost_id(g)) > 0);
            EXPECT_EQ(view.ghost_index(view.ghost_id(g)), g);
        }
        EXPECT_FALSE(view.ghost_index(view.first_local()).has_value());
    }
}

TEST_P(DistGraphTest, GhostDegreesMatchGlobal) {
    for (const auto& view : views_) {
        for (std::size_t g = 0; g < view.num_ghosts(); ++g) {
            EXPECT_EQ(view.degree(view.ghost_id(g)), global_->degree(view.ghost_id(g)));
        }
    }
}

TEST_P(DistGraphTest, CutEdgesAreSymmetric) {
    // Each cut edge is seen once from each side: Σ_i cut_i = 2·|∂E|.
    EdgeId total_cut = 0;
    for (const auto& view : views_) { total_cut += view.num_cut_edges(); }
    EXPECT_EQ(total_cut % 2, 0u);
    // Direct recount from the global graph.
    EdgeId expected = 0;
    for (VertexId v = 0; v < global_->num_vertices(); ++v) {
        for (VertexId u : global_->neighbors(v)) {
            if (v < u && partition_.rank_of(v) != partition_.rank_of(u)) { ++expected; }
        }
    }
    EXPECT_EQ(total_cut, 2 * expected);
}

TEST_P(DistGraphTest, InterfaceClassification) {
    for (const auto& view : views_) {
        for (VertexId v = view.first_local(); v < view.first_local() + view.num_local();
             ++v) {
            bool expected = false;
            for (VertexId u : global_->neighbors(v)) {
                if (partition_.rank_of(u) != view.rank()) { expected = true; }
            }
            EXPECT_EQ(view.is_interface(v), expected);
        }
    }
}

TEST_P(DistGraphTest, OutNeighborsMatchGlobalDegreeOrientation) {
    const CsrGraph oriented = orient_by_degree(*global_);
    for (const auto& view : views_) {
        for (VertexId v = view.first_local(); v < view.first_local() + view.num_local();
             ++v) {
            const auto local_out = view.out_neighbors(v);
            const auto global_out = oriented.neighbors(v);
            ASSERT_EQ(local_out.size(), global_out.size()) << "vertex " << v;
            EXPECT_TRUE(std::equal(local_out.begin(), local_out.end(), global_out.begin()));
        }
    }
}

TEST_P(DistGraphTest, GhostOutIsRewiredIncomingCutEdges) {
    const CsrGraph oriented = orient_by_degree(*global_);
    for (const auto& view : views_) {
        for (std::size_t gi = 0; gi < view.num_ghosts(); ++gi) {
            const VertexId g = view.ghost_id(gi);
            // Expected: local out-neighbors of g in the global orientation.
            std::vector<VertexId> expected;
            for (VertexId u : oriented.neighbors(g)) {
                if (view.is_local(u)) { expected.push_back(u); }
            }
            const auto actual = view.ghost_out_neighbors(gi);
            ASSERT_EQ(actual.size(), expected.size()) << "ghost " << g;
            EXPECT_TRUE(std::equal(actual.begin(), actual.end(), expected.begin()));
            EXPECT_TRUE(std::is_sorted(actual.begin(), actual.end()));
        }
    }
}

TEST_P(DistGraphTest, ContractionKeepsExactlyCutOutEdges) {
    for (const auto& view : views_) {
        for (VertexId v = view.first_local(); v < view.first_local() + view.num_local();
             ++v) {
            const auto full = view.out_neighbors(v);
            const auto contracted = view.contracted_out_neighbors(v);
            std::vector<VertexId> expected;
            for (VertexId u : full) {
                if (!view.is_local(u)) { expected.push_back(u); }
            }
            ASSERT_EQ(contracted.size(), expected.size());
            EXPECT_TRUE(
                std::equal(contracted.begin(), contracted.end(), expected.begin()));
        }
    }
}

TEST_P(DistGraphTest, ContractionLemma) {
    // Lemma 1: {u,v,w} induces a triangle in the cut graph ∂G iff it is a
    // type-3 triangle of G. Build ∂G explicitly and compare its count with
    // a direct type-3 enumeration.
    EdgeList cut_edges;
    for (VertexId v = 0; v < global_->num_vertices(); ++v) {
        for (VertexId u : global_->neighbors(v)) {
            if (v < u && partition_.rank_of(v) != partition_.rank_of(u)) {
                cut_edges.add(v, u);
            }
        }
    }
    const CsrGraph cut_graph = build_undirected(std::move(cut_edges),
                                                global_->num_vertices());
    const std::uint64_t cut_triangles = seq::count_brute_force(cut_graph);

    std::uint64_t type3 = 0;
    for (const auto& [u, v, w] : test::brute_force_triangles(*global_)) {
        const Rank ru = partition_.rank_of(u);
        const Rank rv = partition_.rank_of(v);
        const Rank rw = partition_.rank_of(w);
        if (ru != rv && rv != rw && ru != rw) { ++type3; }
    }
    EXPECT_EQ(cut_triangles, type3);
}

INSTANTIATE_TEST_SUITE_P(FamiliesTimesRanks, DistGraphTest,
                         ::testing::Values(DistCase{0, 1}, DistCase{0, 3}, DistCase{0, 8},
                                           DistCase{1, 4}, DistCase{2, 4}, DistCase{2, 7},
                                           DistCase{3, 5}, DistCase{4, 4}, DistCase{5, 6},
                                           DistCase{6, 2}),
                         dist_case_name);

class ExchangePathTest : public ::testing::TestWithParam<DistCase> {};

TEST_P(ExchangePathTest, EqualsTheShortcut) {
    static const auto cases = katric::test::family_cases();
    const CsrGraph& global = cases[GetParam().family_index].graph;
    expect_both_paths_exact(global, Partition1D::uniform(global.num_vertices(), GetParam().p));
}

std::vector<DistCase> exchange_cases() {
    std::vector<DistCase> cases;
    const std::size_t families = katric::test::family_cases().size();
    for (std::size_t f = 0; f < families; ++f) {
        for (const Rank p : {1u, 2u, 7u, 16u}) { cases.push_back({f, p}); }
    }
    return cases;
}

INSTANTIATE_TEST_SUITE_P(FamiliesTimesRanks, ExchangePathTest,
                         ::testing::ValuesIn(exchange_cases()),
                         dist_case_name);

TEST(DistGraph, ExchangePathWithRanksOwningNoVertices) {
    // p > n: three of the eight ranks own no vertex, send nothing and
    // receive nothing.
    const auto g = katric::test::bowtie_graph();
    const auto partition = Partition1D::uniform(g.num_vertices(), 8);
    ASSERT_EQ(partition.size(7), 0u);
    expect_both_paths_exact(g, partition);
}

/// Partitions of word_boundary_graph whose rank boundaries fall on, just
/// before and just after the 64-ID words.
std::vector<Partition1D> word_boundary_partitions(VertexId n) {
    return {Partition1D({0, 10, n}), Partition1D({0, 10, 64, 128, n}),
            Partition1D({0, 10, 63, 65, 127, 129, n - 1, n})};
}

TEST(DistGraph, GhostsAtBitmapWordBoundaries) {
    // Rank 0's ghosts sit at 63, 64, 127, 128 and n−1 (see
    // word_boundary_graph).
    const CsrGraph g = katric::test::word_boundary_graph();
    const VertexId n = g.num_vertices();
    for (const Partition1D& partition : word_boundary_partitions(n)) {
        SCOPED_TRACE(std::to_string(partition.num_ranks()) + " ranks");
        const auto views = preprocess_by_shortcut(g, partition);
        EXPECT_EQ(views[0].ghost_ids(), (std::vector<VertexId>{63, 64, 127, 128, n - 1}));
        expect_both_paths_exact(g, partition);
    }
}

TEST(DistGraph, GhostIndexRejectsEveryNonGhost) {
    // ghost_index reads the rank word of v / 64. Every ID that is not a
    // ghost must come back nullopt: local IDs, remote non-neighbors (some
    // share a word with a ghost, e.g. 62 beside 63), IDs in the partial
    // last word past n−1, and IDs past the last word. a_set and degree of a
    // non-local one must throw.
    const CsrGraph g = katric::test::word_boundary_graph();
    const VertexId n = g.num_vertices();
    const VertexId words_end = 64 * ((n + 63) / 64);
    std::vector<VertexId> ids{words_end, std::numeric_limits<VertexId>::max()};
    for (VertexId v = 0; v < words_end; ++v) { ids.push_back(v); }
    for (const Partition1D& partition : word_boundary_partitions(n)) {
        for (const DistGraph& view : preprocess_by_shortcut(g, partition)) {
            SCOPED_TRACE(std::to_string(partition.num_ranks()) + " ranks, rank "
                         + std::to_string(view.rank()));
            const auto& ghosts = view.ghost_ids();
            std::size_t rejected_beside_a_ghost = 0;
            for (const VertexId v : ids) {
                const auto it = std::find(ghosts.begin(), ghosts.end(), v);
                if (it != ghosts.end()) {
                    EXPECT_EQ(view.ghost_index(v),
                              static_cast<std::size_t>(it - ghosts.begin()));
                    continue;
                }
                EXPECT_EQ(view.ghost_index(v), std::nullopt) << v;
                if (view.is_local(v)) { continue; }
                EXPECT_THROW((void)view.a_set(v), katric::assertion_error) << v;
                EXPECT_THROW((void)view.degree(v), katric::assertion_error) << v;
                rejected_beside_a_ghost += static_cast<std::size_t>(std::any_of(
                    ghosts.begin(), ghosts.end(), [&](VertexId x) { return x / 64 == v / 64; }));
            }
            if (view.rank() == 0) { EXPECT_GT(rejected_beside_a_ghost, 0u); }
        }
    }
}

TEST(DistGraph, RegularGraphsOrientByIdTieBreak) {
    // Every vertex has the same degree, so every cut orientation is decided
    // by the ID tie-break alone: A(v) = {u ∈ N(v) | u > v}.
    for (const auto& [g, p] : {std::pair{katric::test::cycle_graph(130), Rank{3}},
                               std::pair{katric::test::complete_graph(70), Rank{4}}}) {
        SCOPED_TRACE(std::to_string(g.num_vertices()) + " vertices");
        const auto partition = Partition1D::uniform(g.num_vertices(), p);
        expect_both_paths_exact(g, partition);
        for (const auto& view : preprocess_by_exchange(g, partition)) {
            for (VertexId v = view.first_local(); v < view.first_local() + view.num_local();
                 ++v) {
                std::vector<VertexId> higher;
                for (VertexId u : g.neighbors(v)) {
                    if (u > v) { higher.push_back(u); }
                }
                EXPECT_EQ(to_vector(view.out_neighbors(v)), higher) << v;
            }
        }
    }
}

TEST(DistGraph, StarHubIsAGhostOnEveryOtherRank) {
    // The hub has the largest degree, so every leaf points at it: each
    // other rank sees it as a ghost whose A(g) is empty and whose ID is
    // every local leaf's only out- and contracted neighbor.
    constexpr VertexId n = 150;
    constexpr Rank p = 5;
    for (const VertexId hub : {VertexId{0}, n / 2, n - 1}) {
        SCOPED_TRACE("hub " + std::to_string(hub));
        const CsrGraph g = katric::test::star_graph(n, hub);
        const auto partition = Partition1D::uniform(n, p);
        expect_both_paths_exact(g, partition);
        for (const auto& view : preprocess_by_exchange(g, partition)) {
            if (view.is_local(hub)) { continue; }
            ASSERT_EQ(view.ghost_ids(), std::vector<VertexId>{hub});
            EXPECT_EQ(view.degree(hub), n - 1);
            EXPECT_TRUE(view.ghost_out_neighbors(0).empty());
            EXPECT_EQ(view.contracted_size(), view.num_local());
        }
    }
}

TEST(DistGraph, DegreeApplyRejectsMismatchedGhosts) {
    // One view comes from a graph with the extra edge {0, 5}, the other
    // from one without it. One rank then receives a degree for a vertex
    // that is not its next ghost, and the other misses a ghost's degree;
    // the cursor walk must reject either.
    EdgeList with_edge;
    EdgeList without_edge;
    for (VertexId v = 0; v + 1 < 8; ++v) {
        with_edge.add(v, v + 1);
        without_edge.add(v, v + 1);
    }
    with_edge.add(0, 5);
    const CsrGraph g_with = build_undirected(std::move(with_edge), 8);
    const CsrGraph g_without = build_undirected(std::move(without_edge), 8);
    const auto partition = Partition1D::uniform(8, 2);
    for (const bool extra_on_rank0 : {true, false}) {
        SCOPED_TRACE(extra_on_rank0 ? "extra edge on rank 0" : "extra edge on rank 1");
        std::vector<DistGraph> views{
            DistGraph::from_global(extra_on_rank0 ? g_with : g_without, partition, 0),
            DistGraph::from_global(extra_on_rank0 ? g_without : g_with, partition, 1)};
        net::Simulator sim(2, net::NetworkConfig{});
        try {
            core::run_preprocessing(sim, views, core::AlgorithmOptions{});
            ADD_FAILURE() << "mismatched ghosts were accepted";
        } catch (const katric::assertion_error& error) {
            const std::string what = error.what();
            EXPECT_TRUE(what.find("degree message for unknown ghost") != std::string::npos
                        || what.find("no degree message for ghost") != std::string::npos)
                << what;
        }
    }
}

TEST(DistGraph, NeighborOutsideThePartitionIsRejected) {
    // The ghost bitmap spans the partitioned IDs; a received edge naming a
    // vertex beyond them must fail typed, not write past the bitmap.
    EdgeList edges;
    edges.add(0, 1);
    edges.add(1, 9);
    EXPECT_THROW((void)DistGraph::from_local_edges(Partition1D::uniform(4, 2), 0, edges),
                 katric::assertion_error);
}

TEST(DistGraph, GhostDegreeRequiredBeforeOrientation) {
    const auto g = katric::test::bowtie_graph();
    const auto part = Partition1D::uniform(g.num_vertices(), 2);
    auto view = DistGraph::from_global(g, part, 0);
    EXPECT_THROW(view.build_oriented(), katric::assertion_error);
}

TEST(DistGraph, ASetDispatchesLocalAndGhost) {
    const auto g = katric::test::complete_graph(8);
    const auto part = Partition1D::uniform(8, 2);
    auto view = DistGraph::from_global(g, part, 0);
    view.fill_ghost_degrees_from(g);
    view.build_oriented();
    // Local vertex: full out set; ghost: rewired local-only set.
    const auto local_a = view.a_set(0);
    EXPECT_EQ(local_a.size(), view.out_neighbors(0).size());
    const auto ghost_a = view.a_set(7);
    for (VertexId u : ghost_a) { EXPECT_TRUE(view.is_local(u)); }
}

}  // namespace
}  // namespace katric::graph
