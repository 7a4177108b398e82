// Ablation (Section IV-C): CETRIC's contraction pays exactly
// when the vertex ID order correlates with the graph's structure. Take one
// geometric instance and run it in natural order (full locality), randomly
// shuffled (no locality — the social-network regime), and BFS-relabeled
// after shuffling (locality restored cheaply).

#include <iostream>

#include "bench_common.hpp"
#include "gen/rgg2d.hpp"
#include "graph/permutation.hpp"

int main(int argc, char** argv) {
    using namespace katric;
    CliParser cli("bench_ablation_locality", "vertex-order locality vs contraction win");
    cli.option("log-n", "13", "log2 of vertex count (RGG2D, avg degree 16)");
    Config defaults;
    defaults.num_ranks = 16;
    bench::add_engine_options(cli, defaults);
    if (!cli.parse(argc, argv)) { return 0; }

    const auto base = bench::engine_config(cli);
    bench::print_header("Ablation: locality (vertex order) on RGG2D", base);
    const graph::VertexId n = graph::VertexId{1} << cli.get_uint("log-n");
    const auto natural =
        gen::generate_rgg2d_local(n, gen::rgg2d_radius_for_degree(n, 16.0), 3);
    const auto shuffled =
        graph::apply_permutation(natural, graph::random_permutation(n, 99));
    const auto restored = graph::apply_permutation(shuffled, graph::bfs_order(shuffled));

    struct Variant {
        std::string name;
        const graph::CsrGraph* graph;
    };
    const Variant variants[] = {{"spatial (KaGen-like)", &natural},
                                {"shuffled (no locality)", &shuffled},
                                {"BFS-relabeled", &restored}};

    JsonWriter json;
    Table table({"order", "algo", "time (s)", "total volume", "bottleneck vol",
                 "cut edges"});
    for (const auto& variant : variants) {
        // One build per vertex order; the engine's partition doubles as the
        // cut-size probe and both algorithms reuse the built views.
        Engine engine(*variant.graph, base);
        const auto& partition = engine.partition();
        graph::EdgeId cut = 0;
        for (graph::VertexId v = 0; v < variant.graph->num_vertices(); ++v) {
            for (graph::VertexId u : variant.graph->neighbors(v)) {
                if (v < u && partition.rank_of(v) != partition.rank_of(u)) { ++cut; }
            }
        }
        for (const auto algorithm : {core::Algorithm::kDitric, core::Algorithm::kCetric}) {
            const auto report = engine.count(algorithm);
            json.begin_row()
                .field("order", variant.name)
                .field("cut_edges", static_cast<std::uint64_t>(cut))
                .report_fields(report);
            table.row()
                .cell(variant.name)
                .cell(core::algorithm_name(algorithm))
                .cell(report.count.total_time, 5)
                .cell(report.count.total_words_sent)
                .cell(report.count.max_words_sent)
                .cell(cut);
        }
    }
    table.print(std::cout);
    json.write(cli.get_string("json"));
    std::cout << "\nExpected shape: with locality (natural/BFS order) the cut is small "
                 "and CETRIC's contraction slashes the volume; shuffled IDs erase the "
                 "advantage — the friendster effect of Fig. 7.\n";
    return 0;
}
