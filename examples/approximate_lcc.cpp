// Exact vs approximate global counting (Section IV-E): how much
// communication does the Bloom-filter global phase save, and what does the
// estimate cost in accuracy? The exact run and the whole AMQ sweep share
// one Engine build — the facade's multi-query amortization in its natural
// habitat. Also demonstrates DOULION-style sampling with the distributed
// counter as a black box.

#include <cmath>
#include <iostream>
#include <sstream>

#include "gen/proxies.hpp"
#include "katric.hpp"
#include "util/table.hpp"

int main() {
    using namespace katric;

    const auto g = gen::build_proxy("twitter");
    std::cout << "instance: twitter-proxy n=" << g.num_vertices()
              << " m=" << g.num_edges() << "\n\n";

    Config config;
    config.algorithm = core::Algorithm::kCetric;
    config.num_ranks = 16;

    // One build serves the exact count and every AMQ configuration.
    Engine engine(g, config);
    const auto exact = engine.count();
    const auto exact_count = static_cast<double>(exact.count.triangles);
    std::cout << "exact CETRIC: " << exact.count.triangles << " triangles, "
              << exact.count.total_words_sent << " words shipped, simulated "
              << exact.count.total_time << " s\n\n";

    Table table({"method", "estimate", "rel err (%)", "volume (words)",
                 "volume saved (%)"});
    table.row()
        .cell("exact CETRIC")
        .cell(exact_count, 0)
        .cell(0.0, 3)
        .cell(exact.count.total_words_sent)
        .cell(0.0, 1);
    for (const double fpr : {0.1, 0.02, 0.005}) {
        core::AmqOptions amq;
        amq.target_fpr = fpr;
        const auto approx = engine.approx_count(amq);
        std::ostringstream name;
        name << "CETRIC-AMQ fpr=" << fpr;
        table.row()
            .cell(name.str())
            .cell(approx.estimated_triangles, 0)
            .cell(100.0 * std::abs(approx.estimated_triangles - exact_count)
                      / exact_count,
                  3)
            .cell(approx.count.total_words_sent)
            .cell(100.0
                      * (1.0
                         - static_cast<double>(approx.count.total_words_sent)
                               / static_cast<double>(exact.count.total_words_sent)),
                  1);
    }
    for (const double keep : {0.25, 0.5}) {
        // Sampling changes the graph itself, so each run needs its own build.
        const auto sparse = core::sparsify_doulion(g, keep, 7);
        Engine sparse_engine(sparse, config);
        const auto run = sparse_engine.count();
        const double estimate =
            static_cast<double>(run.count.triangles) * core::doulion_scale(keep);
        std::ostringstream name;
        name << "DOULION q=" << keep;
        table.row()
            .cell(name.str())
            .cell(estimate, 0)
            .cell(100.0 * std::abs(estimate - exact_count) / exact_count, 3)
            .cell(run.count.total_words_sent)
            .cell(100.0
                      * (1.0
                         - static_cast<double>(run.count.total_words_sent)
                               / static_cast<double>(exact.count.total_words_sent)),
                  1);
    }
    table.print(std::cout);
    std::cout << "\nThe AMQ variant keeps type-1/2 counts exact and still supports "
                 "local clustering coefficients; edge sampling only estimates the "
                 "global count. All AMQ rows ran "
              << engine.queries_run() << " queries against one engine build.\n";
    return 0;
}
