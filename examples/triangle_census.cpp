// Triangle census: exercise the two remaining public-API pillars together —
// the distributed input pipeline (per-PE generation, no global graph during
// the simulated run) and exactly-once triangle enumeration — then profile
// where in the machine the triangles were found.

#include <algorithm>
#include <iostream>

#include "core/dist_input.hpp"
#include "graph/builder.hpp"
#include "katric.hpp"
#include "util/table.hpp"

int main() {
    using namespace katric;
    const graph::Rank p = 12;

    // 1. Generate the instance *on the machine*: each simulated PE creates
    //    its chunk and edges are routed to their owners in one sparse
    //    all-to-all. The input cost is charged like any other phase.
    core::DistInputSpec input;
    input.family = core::SyntheticFamily::kRmat;
    input.n = 1 << 12;
    input.m = (1 << 12) * 16;
    input.seed = 2023;
    const auto partition = graph::Partition1D::uniform(input.n, p);
    net::Simulator sim(p, net::NetworkConfig::supermuc_like());
    auto piped = core::generate_distributed(sim, partition, input);
    std::cout << "distributed input: R-MAT n=" << input.n << ", " << input.m
              << " edge slots, " << piped.exchanged_words
              << " words redistributed in " << piped.input_time << " s (simulated)\n";

    // 2. Preprocess the piped views once (ghost degrees, orientation,
    //    contraction — charged on the same machine), then count on them.
    core::RunSpec spec;
    spec.algorithm = core::Algorithm::kCetric2;
    spec.num_ranks = p;
    core::run_preprocessing(sim, piped.views, spec.options);
    const auto count = core::dispatch_algorithm(sim, piped.views, spec);
    std::cout << "triangles: " << count.triangles << " (type 1+2: "
              << count.local_phase_triangles << ", type 3: "
              << count.global_phase_triangles << "), total simulated time "
              << sim.time() << " s including input\n\n";

    // 3. Enumerate (host-side graph reassembly only for the census run) and
    //    profile the per-PE discovery load — an Engine query against the
    //    reassembled graph.
    graph::EdgeList all;
    for (const auto& view : piped.views) {
        for (graph::VertexId v = view.first_local();
             v < view.first_local() + view.num_local(); ++v) {
            for (graph::VertexId u : view.neighbors(v)) {
                if (v < u || !view.is_local(u)) { all.add(v, u); }
            }
        }
    }
    const auto global = graph::build_undirected(std::move(all), input.n);
    Engine engine(global, Config::from_run_spec(spec));
    const auto census = engine.enumerate();
    std::cout << "enumerated " << census.triangles.size()
              << " distinct triangles (exactly-once verified)\n";
    std::cout << "first: {" << census.triangles.front().a << ","
              << census.triangles.front().b << "," << census.triangles.front().c
              << "}  last: {" << census.triangles.back().a << ","
              << census.triangles.back().b << "," << census.triangles.back().c << "}\n\n";

    Table table({"rank", "triangles found", "share (%)"});
    for (graph::Rank r = 0; r < p; ++r) {
        table.row()
            .cell(std::uint64_t{r})
            .cell(static_cast<std::uint64_t>(census.found_per_rank[r]))
            .cell(100.0 * static_cast<double>(census.found_per_rank[r])
                      / static_cast<double>(std::max<std::size_t>(
                            census.triangles.size(), 1)),
                  1);
    }
    table.print(std::cout);
    std::cout << "\nSkewed discovery shares on R-MAT illustrate why Section IV-D "
                 "discusses load balancing.\n";
    return census.triangles.size() == count.triangles ? 0 : 1;
}
