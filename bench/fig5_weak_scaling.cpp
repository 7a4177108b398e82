// Regenerates Fig. 5: weak scaling on the four synthetic families —
// RGG2D(n/p), RHG(n/p, γ=2.8), GNM(n/p), RMAT(n/p) with m = 16·n — reporting
// for every algorithm the total running time, the maximum number of outgoing
// messages over all PEs, and the bottleneck communication volume.
//
// Scale note: the paper uses n/p = 2^18 (RGG2D/RHG) and 2^16
// (GNM/RMAT) up to 2^15 cores on SuperMUC-NG; the proxy default is n/p = 2^10
// and 2^8 up to 64 simulated PEs, adjustable via --log-n-per-pe/--ps.

#include <functional>
#include <iostream>

#include "bench_common.hpp"
#include "gen/gnm.hpp"
#include "gen/rgg2d.hpp"
#include "gen/rhg.hpp"
#include "gen/rmat.hpp"
#include "util/bits.hpp"

namespace {

using katric::graph::CsrGraph;
using katric::graph::VertexId;

struct Family {
    std::string name;
    std::uint64_t log_n_per_pe_shift;  // subtracted from --log-n-per-pe
    std::function<CsrGraph(VertexId n)> build;
};

}  // namespace

int main(int argc, char** argv) {
    using namespace katric;
    CliParser cli("bench_fig5_weak_scaling", "Fig. 5 — weak scaling on four families");
    cli.option("ps", "1,2,4,8,16,32,64", "core counts");
    cli.option("log-n-per-pe", "10", "log2 of vertices per PE for RGG2D/RHG "
                                     "(GNM/RMAT use 4x fewer, as in the paper)");
    cli.option("algos", bench::default_algorithms_csv(), "algorithms to run");
    cli.option("seed", "42", "generator seed");
    cli.option("mem-factor", "48",
               "per-PE memory budget as a multiple of the per-PE input size "
               "(fixed memory per core, as on SuperMUC-NG)");
    bench::add_engine_options(cli);
    if (!cli.parse(argc, argv)) { return 0; }

    const auto base = bench::engine_config(cli);
    const auto algorithms = bench::parse_algorithms(cli.get_string("algos"));
    const auto log_n = cli.get_uint("log-n-per-pe");
    const auto seed = cli.get_uint("seed");
    bench::print_header("Fig. 5: weak scaling", base);

    const std::vector<Family> families = {
        {"RGG2D", 0,
         [&](VertexId n) {
             return gen::generate_rgg2d_local(n, gen::rgg2d_radius_for_degree(n, 16.0),
                                              seed);
         }},
        {"RHG", 0, [&](VertexId n) { return gen::generate_rhg_local(n, 16.0, 2.8, seed); }},
        {"GNM", 2, [&](VertexId n) { return gen::generate_gnm(n, 16 * n, seed); }},
        {"RMAT", 2,
         [&](VertexId n) {
             return gen::generate_rmat(static_cast<std::uint32_t>(katric::floor_log2(n)),
                                       16 * n, seed);
         }},
    };

    JsonWriter json;
    for (const auto& family : families) {
        const auto pe_log = log_n - family.log_n_per_pe_shift;
        std::cout << "--- " << family.name << "(n/p=2^" << pe_log << ", m=16n) ---\n";
        Table table({"algo", "cores", "n", "time (s)", "max msgs sent",
                     "bottleneck volume (words)", "triangles"});
        for (const auto p : cli.get_uint_list("ps")) {
            const VertexId n = (VertexId{1} << pe_log) * p;
            const auto g = family.build(n);
            Config config = base;
            config.num_ranks = static_cast<graph::Rank>(p);
            // Weak scaling on a machine with fixed memory per core: the
            // budget follows the (constant) per-PE input size.
            config.network.memory_limit_words =
                cli.get_uint("mem-factor") * (2 * g.num_edges() + n) / p;
            // One build per instance; the algorithm sweep reuses it.
            Engine engine(g, config);
            for (const auto algorithm : algorithms) {
                const auto report = engine.count(algorithm);
                json.begin_row()
                    .field("family", family.name)
                    .field("cores", p)
                    .field("n", static_cast<std::uint64_t>(n))
                    .report_fields(report);
                table.row()
                    .cell(core::algorithm_name(algorithm))
                    .cell(p)
                    .cell(n)
                    .cell(bench::time_or_oom(report))
                    .cell(report.count.oom ? std::uint64_t{0}
                                           : report.count.max_messages_sent)
                    .cell(report.count.oom ? std::uint64_t{0}
                                           : report.count.max_words_sent)
                    .cell(report.count.triangles);
            }
        }
        table.print(std::cout);
        std::cout << '\n';
    }
    json.write(cli.get_string("json"));
    std::cout << "Expected shape (paper): DITRIC*/CETRIC* beat the baselines on "
                 "RGG2D/RHG; CETRIC cuts bottleneck volume on RGG2D but adds local "
                 "work; on GNM contraction does not pay; TriC-style OOMs or degrades "
                 "at scale; indirect variants reduce max message counts.\n";
    return 0;
}
