// Regenerates Table I: instance statistics (n, m, wedges, triangles) for the
// eight real-world graphs — here their synthetic proxies (gen/proxies.hpp) —
// side by side with the paper's absolute numbers.

#include <iostream>

#include "bench_common.hpp"
#include "gen/proxies.hpp"
#include "graph/graph_stats.hpp"
#include "seq/edge_iterator.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
    using namespace katric;
    CliParser cli("bench_table1_datasets",
                  "Table I — real-world instance statistics (proxy scale)");
    cli.option("scale", "1", "proxy size multiplier");
    bench::add_json_option(cli);
    if (!cli.parse(argc, argv)) { return 0; }
    const auto scale = cli.get_uint("scale");

    std::cout << "=== Table I: instances (paper values vs generated proxies) ===\n\n";
    JsonWriter json;
    Table table({"instance", "family", "n", "m", "wedges(orient)", "triangles",
                 "paper n", "paper m", "paper wedges", "paper triangles"});
    for (const auto& spec : gen::proxy_registry()) {
        const auto g = gen::build_proxy(spec.name, scale);
        const auto stats = graph::compute_stats(g);
        const auto triangles = seq::count_edge_iterator(g).triangles;
        json.begin_row()
            .field("instance", spec.name)
            .field("n", static_cast<std::uint64_t>(stats.n))
            .field("m", static_cast<std::uint64_t>(stats.m))
            .field("triangles", triangles);
        table.row()
            .cell(spec.name)
            .cell(spec.family)
            .cell(format_si(static_cast<double>(stats.n)))
            .cell(format_si(static_cast<double>(stats.m)))
            .cell(format_si(static_cast<double>(stats.oriented_wedges)))
            .cell(format_si(static_cast<double>(triangles)))
            .cell(format_si(static_cast<double>(spec.paper_n)))
            .cell(format_si(static_cast<double>(spec.paper_m)))
            .cell(format_si(static_cast<double>(spec.paper_wedges)))
            .cell(format_si(static_cast<double>(spec.paper_triangles)));
    }
    table.print(std::cout);
    json.write(cli.get_string("json"));
    std::cout << "\nProxy recipes:\n";
    for (const auto& spec : gen::proxy_registry()) {
        std::cout << "  " << spec.name << ": " << spec.generator << '\n';
    }
    return 0;
}
