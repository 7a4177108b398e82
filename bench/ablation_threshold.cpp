// Ablation (Section IV-A): the buffer threshold δ of the dynamically buffered
// message queue. Large δ approaches TriC-style static buffering (peak memory
// grows); tiny δ degenerates toward unbuffered sending (message counts and
// α-overheads grow). δ ∈ O(|E_i|) is the paper's linear-memory sweet spot.

#include <iostream>

#include "bench_common.hpp"
#include "gen/rgg2d.hpp"

int main(int argc, char** argv) {
    using namespace katric;
    CliParser cli("bench_ablation_threshold", "δ sweep for the message queue");
    cli.option("log-n", "13", "log2 of vertex count (RGG2D, avg degree 16)");
    cli.option("deltas", "16,64,256,1024,4096,16384,65536,262144", "δ values (words)");
    Config defaults;
    defaults.algorithm = core::Algorithm::kDitric;
    defaults.num_ranks = 16;
    bench::add_engine_options(cli, defaults);
    if (!cli.parse(argc, argv)) { return 0; }

    const auto base = bench::engine_config(cli);
    bench::print_header("Ablation: buffer threshold δ (DITRIC)", base);
    const graph::VertexId n = graph::VertexId{1} << cli.get_uint("log-n");
    const auto g = gen::generate_rgg2d_local(n, gen::rgg2d_radius_for_degree(n, 16.0), 13);
    std::cout << "instance: RGG2D n=" << n << " m=" << g.num_edges()
              << ", p=" << base.num_ranks << " (auto δ would be ≈"
              << 2 * g.num_edges() / base.num_ranks << " words/PE)\n\n";

    JsonWriter json;
    Table table({"delta (words)", "time (s)", "total msgs", "max msgs/PE",
                 "peak buffer (words)"});
    for (const auto delta : cli.get_uint_list("deltas")) {
        Config config = base;
        config.options.buffer_threshold_words = delta;
        Engine engine(g, config);
        const auto report = engine.count();
        json.begin_row().field("delta", delta).report_fields(report);
        table.row()
            .cell(delta)
            .cell(report.count.total_time, 5)
            .cell(report.count.total_messages_sent)
            .cell(report.count.max_messages_sent)
            .cell(report.count.max_peak_buffer_words);
    }
    table.print(std::cout);
    json.write(cli.get_string("json"));
    std::cout << "\nExpected shape: message counts fall and peak memory rises with δ; "
                 "time flattens once δ reaches O(|E_i|).\n";
    return 0;
}
