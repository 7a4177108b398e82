// The differential oracle harness: every Engine answer against the sequential
// oracles (support/oracle.hpp) over cells of graph × partition {balanced,
// uniform} × kernel {merge, adaptive} × p {1, 2, 7, 16} × hardened {off, on}.
// The adversarial corpus and K24 run the full product, the generated family
// graphs a pairwise covering set. Carried cells pin the instances and knobs
// of the suites the harness replaced; seeded cells draw random ones.

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <ostream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "gen/gnm.hpp"
#include "gen/grid.hpp"
#include "gen/rgg2d.hpp"
#include "gen/rhg.hpp"
#include "gen/rmat.hpp"
#include "support/oracle.hpp"
#include "support/test_graphs.hpp"
#include "util/random.hpp"

namespace katric {
namespace {

using core::PartitionStrategy;
using seq::IntersectKind;

struct Cell {
    std::string graph;
    PartitionStrategy partition = PartitionStrategy::kBalancedEdges;
    IntersectKind kernel = IntersectKind::kMerge;
    graph::Rank p = 1;
    bool hardened = false;
    std::uint64_t delta = 0;          ///< δ in words; 0 = automatic
    graph::Degree hub_threshold = 0;  ///< 0 = automatic
    int threads = 1;
    bool indirect = false;  ///< grid-proxy routing of the stream's traffic
};

constexpr PartitionStrategy kPartitions[] = {PartitionStrategy::kBalancedEdges,
                                             PartitionStrategy::kUniformVertices};
constexpr IntersectKind kKernels[] = {IntersectKind::kMerge, IntersectKind::kAdaptive};
constexpr graph::Rank kRanks[] = {1, 2, 7, 16};

/// The graph a cell names, built on first use and kept for the process:
/// ctest runs each cell in its own process, which then builds one graph.
const graph::CsrGraph& graph_named(const std::string& name) {
    static const auto builders = [] {
        std::map<std::string, std::function<graph::CsrGraph()>> all;
        for (auto cases : {test::family_builders(), test::adversarial_builders()}) {
            for (auto& c : cases) { all.emplace(c.name, std::move(c.build)); }
        }
        // The instances of the suites the harness replaced.
        const auto rgg2d = [](graph::VertexId n, double degree, std::uint64_t seed) {
            return [=] {
                return gen::generate_rgg2d(n, gen::rgg2d_radius_for_degree(n, degree),
                                           seed);
            };
        };
        all.emplace("rgg2d_300", rgg2d(300, 10.0, 123));
        all.emplace("rgg2d_256", rgg2d(256, 9.0, 21));
        all.emplace("k6", [] { return test::complete_graph(6); });
        all.emplace("k10", [] { return test::complete_graph(10); });
        all.emplace("k16", [] { return test::complete_graph(16); });
        all.emplace("rmat_128", [] { return gen::generate_rmat(7, 768, 5); });
        all.emplace("rmat_256", [] { return gen::generate_rmat(8, 1536, 9); });
        all.emplace("rmat_512", [] { return gen::generate_rmat(9, 4096, 9); });
        all.emplace("rhg_512", [] { return gen::generate_rhg(512, 8.0, 2.8, 3); });
        all.emplace("rhg_700", [] { return gen::generate_rhg(700, 9.0, 2.8, 12); });
        all.emplace("rhg_1024", [] { return gen::generate_rhg(1024, 10.0, 2.8, 15); });
        all.emplace("gnm_200", [] { return gen::generate_gnm(200, 1200, 13); });
        all.emplace("gnm_400", [] { return gen::generate_gnm(400, 3200, 5); });
        return all;
    }();
    static std::map<std::string, graph::CsrGraph> built;
    auto it = built.find(name);
    if (it == built.end()) { it = built.emplace(name, builders.at(name)()).first; }
    return it->second;
}

Config cell_config(const Cell& cell) {
    Config config;
    config.num_ranks = cell.p;
    config.partition = cell.partition;
    config.options.intersect = cell.kernel;
    config.options.buffer_threshold_words = cell.delta;
    config.options.hub_threshold = cell.hub_threshold;
    config.options.threads = cell.threads;
    config.stream_indirect = cell.indirect;
    config.harden = cell.hardened;
    return config;
}

/// An axis cell. On the adaptive kernel a threshold of 2 turns most rows
/// into hubs, so the bitmap paths (and the stream's dirty invalidation) fire
/// on every intersection, not only on the degree tail.
Cell axis_cell(const std::string& graph, std::size_t partition, std::size_t kernel,
               graph::Rank p, bool hardened) {
    return {graph,    kPartitions[partition], kKernels[kernel], p, hardened, 0,
            kernel == 1 ? graph::Degree{2} : graph::Degree{0}};
}

std::vector<Cell> full_product_cells() {
    std::vector<std::string> graphs{"complete"};  // K24, from the family cases
    for (const auto& c : test::adversarial_builders()) { graphs.push_back(c.name); }
    std::vector<Cell> cells;
    for (const auto& graph : graphs) {
        for (std::size_t axes = 0; axes < 8; ++axes) {
            for (const auto p : kRanks) {
                cells.push_back(axis_cell(graph, axes & 1, (axes >> 1) & 1, p, axes >> 2));
            }
        }
    }
    return cells;
}

/// The generated family graphs × p in full; the three binary axes follow an
/// orthogonal array over each graph's four cells, rotated by one row per
/// graph, so every pair of axis values meets in some cell.
std::vector<Cell> pairwise_family_cells() {
    constexpr std::size_t kRows[4][3] = {{0, 0, 0}, {0, 1, 1}, {1, 0, 1}, {1, 1, 0}};
    const std::vector<std::string> graphs{"gnm",  "rgg2d", "rhg",
                                          "rmat", "grid",  "petersen"};
    std::vector<Cell> cells;
    for (std::size_t g = 0; g < graphs.size(); ++g) {
        for (std::size_t j = 0; j < std::size(kRanks); ++j) {
            const auto& row = kRows[(g + j) % 4];
            cells.push_back(axis_cell(graphs[g], row[0], row[1], kRanks[j], row[2] == 1));
        }
    }
    return cells;
}

/// The replaced suites' instances and knobs the product does not reach:
/// p ∈ {3, 4, 5, 8, 9, 11, 13, 29}, hub thresholds 1 and 2, δ = 8 words,
/// 1–12 threads, the stream routed over a 3×3 grid.
std::vector<Cell> carried_cells() {
    constexpr auto kAdaptive = IntersectKind::kAdaptive;
    constexpr auto kUniform = PartitionStrategy::kUniformVertices;
    std::vector<Cell> cells;
    for (const auto& c : test::family_builders()) {
        for (const graph::Rank p : {3, 4, 5, 8, 9}) {
            cells.push_back({.graph = c.name, .p = p});
        }
    }
    for (const graph::Rank p : {1, 2, 3, 5, 7, 11, 16, 29}) {
        cells.push_back({.graph = "rgg2d_300", .p = p});
    }
    for (const graph::Rank p : {1, 4, 7}) {
        cells.push_back(
            {.graph = "rmat_256", .kernel = kAdaptive, .p = p, .hub_threshold = 1});
    }
    for (const int threads : {1, 2, 6, 12}) {
        cells.push_back({.graph = "rhg_1024", .p = 4, .threads = threads});
    }
    for (const auto kernel : kKernels) {
        cells.push_back({.graph = "rhg_512", .kernel = kernel, .p = 6, .hub_threshold = 2});
    }
    for (const auto partition : kPartitions) {
        cells.push_back({.graph = "rmat_512", .partition = partition, .p = 8});
    }
    cells.push_back({.graph = "rmat_128", .kernel = kAdaptive, .p = 5, .hub_threshold = 1});
    cells.push_back({.graph = "rgg2d_256", .p = 9, .indirect = true});
    cells.push_back({.graph = "gnm_200", .p = 8, .delta = 8});
    cells.push_back({.graph = "gnm_400", .p = 8, .delta = 8});
    cells.push_back({.graph = "rhg_700", .p = 5});
    cells.push_back({.graph = "k10", .p = 5});
    cells.push_back({.graph = "k16", .p = 3});
    cells.push_back({.graph = "k6", .partition = kUniform, .p = 13});
    cells.push_back({.graph = "empty", .partition = kUniform, .p = 4});
    cells.push_back({.graph = "edgeless", .partition = kUniform, .p = 4});
    return cells;
}

std::string label(const Cell& cell) {
    std::string name = cell.graph + "_" + partition_strategy_name(cell.partition) + "_"
                       + seq::intersect_kind_name(cell.kernel) + "_p"
                       + std::to_string(cell.p)
                       + (cell.hardened ? "_hardened" : "_plain");
    if (cell.delta != 0) { name += "_delta" + std::to_string(cell.delta); }
    if (cell.hub_threshold != 0) { name += "_hub" + std::to_string(cell.hub_threshold); }
    if (cell.threads != 1) { name += "_threads" + std::to_string(cell.threads); }
    if (cell.indirect) { name += "_indirect"; }
    return name;
}

std::string cell_name(const ::testing::TestParamInfo<Cell>& info) {
    return label(info.param);
}

/// A cell prints as its name: ctest's test names carry the printed
/// parameter, and the default byte dump would include a heap address.
void PrintTo(const Cell& cell, std::ostream* out) { *out << label(cell); }

class OracleTest : public ::testing::TestWithParam<Cell> {};

TEST_P(OracleTest, EveryAnswerMatchesTheSequentialOracles) {
    const auto& cell = GetParam();
    test::expect_engine_matches_oracles(graph_named(cell.graph), cell_config(cell));
}

INSTANTIATE_TEST_SUITE_P(Corpus, OracleTest, ::testing::ValuesIn(full_product_cells()),
                         cell_name);
INSTANTIATE_TEST_SUITE_P(Families, OracleTest,
                         ::testing::ValuesIn(pairwise_family_cells()), cell_name);
INSTANTIATE_TEST_SUITE_P(Carried, OracleTest, ::testing::ValuesIn(carried_cells()),
                         cell_name);

TEST(OracleCells, FamilyCellsCoverEveryPairOfAxisValues) {
    std::vector<std::vector<std::string>> rows;
    for (const auto& c : pairwise_family_cells()) {
        rows.push_back({c.graph, partition_strategy_name(c.partition),
                        seq::intersect_kind_name(c.kernel), std::to_string(c.p),
                        c.hardened ? "on" : "off"});
    }
    // Values per axis: graphs, partitions, kernels, rank counts, hardening.
    const std::size_t values[] = {6, 2, 2, std::size(kRanks), 2};
    for (std::size_t a = 0; a < 5; ++a) {
        for (std::size_t b = a + 1; b < 5; ++b) {
            std::set<std::pair<std::string, std::string>> met;
            for (const auto& row : rows) { met.insert({row[a], row[b]}); }
            EXPECT_EQ(met.size(), values[a] * values[b]) << "axes " << a << ", " << b;
        }
    }
}

/// A random generator family, size and density.
graph::CsrGraph random_instance(Xoshiro256& rng) {
    const auto family = rng.next_bounded(5);
    const graph::VertexId n = 64 + rng.next_bounded(400);
    const std::uint64_t seed = rng();
    switch (family) {
        case 0: return gen::generate_gnm(n, n * (2 + rng.next_bounded(12)), seed);
        case 1:
            return gen::generate_rgg2d(
                n, gen::rgg2d_radius_for_degree(n, 4.0 + rng.next_double() * 12.0), seed);
        case 2:
            return gen::generate_rhg(n, 4.0 + rng.next_double() * 8.0,
                                     2.2 + rng.next_double(), seed);
        case 3: {
            const auto scale = static_cast<std::uint32_t>(6 + rng.next_bounded(4));
            return gen::generate_rmat(scale, (std::uint64_t{1} << scale) * 8, seed);
        }
        default: {
            const graph::VertexId side = 8 + rng.next_bounded(16);
            return gen::generate_grid_road(side, side, 0.8 + rng.next_double() * 0.2,
                                           rng.next_double() * 0.3, seed);
        }
    }
}

class OracleSeededTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OracleSeededTest, RandomScenarioMatchesTheSequentialOracles) {
    Xoshiro256 rng(GetParam() * 7919 + 13);
    const auto g = random_instance(rng);
    Config config;
    // Every cell runs all algorithms; this draw only keeps each seed's knobs
    // those of the seeded scenarios that ran one algorithm each.
    (void)rng.next_bounded(core::all_algorithms().size());
    config.num_ranks = static_cast<graph::Rank>(1 + rng.next_bounded(24));
    config.partition = rng.next_bool(0.5) ? PartitionStrategy::kUniformVertices
                                          : PartitionStrategy::kBalancedEdges;
    if (rng.next_bool(0.3)) {
        config.options.buffer_threshold_words = 1 + rng.next_bounded(256);
    }
    const auto& kinds = seq::all_intersect_kinds();
    config.options.intersect = kinds[rng.next_bounded(kinds.size())];
    if (rng.next_bool(0.5)) { config.options.hub_threshold = 1 + rng.next_bounded(16); }
    if (rng.next_bool(0.25)) {
        config.options.threads = 1 + static_cast<int>(rng.next_bounded(8));
    }
    config.harden = rng.next_bool(0.5);

    SCOPED_TRACE(testing::Message() << "n=" << g.num_vertices() << " m=" << g.num_edges()
                                    << " " << config.describe());
    test::expect_engine_matches_oracles(g, config);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OracleSeededTest, ::testing::Range<std::uint64_t>(0, 48));

}  // namespace
}  // namespace katric
