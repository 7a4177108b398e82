#pragma once

#include <algorithm>
#include <array>
#include <utility>
#include <vector>

#include "core/approx.hpp"
#include "core/dist_lcc.hpp"
#include "core/enumerate.hpp"
#include "core/runner.hpp"
#include "error.hpp"
#include "graph/distributed_graph.hpp"
#include "net/metrics.hpp"
#include "net/rank_pool.hpp"
#include "net/simulator.hpp"
#include "report.hpp"

namespace katric::test {

namespace detail {

using Views = std::vector<graph::DistGraph>;

/// Runs `run(report, sim, views)` on fresh views of `g` and a fresh machine
/// whose rounds run on `pool`, then fills the fields Engine::finalize derives
/// from the machine.
template <typename Run>
Report oneshot(Query kind, const graph::CsrGraph& g, const core::RunSpec& spec,
               const Run& run, net::RankPool& pool = net::RankPool::shared()) {
    Views views = graph::distribute(g, core::make_partition(g, spec));
    net::Simulator sim(spec.num_ranks, spec.network, pool);
    Report report;
    report.query = kind;
    report.algorithm = spec.algorithm;
    run(report, sim, views);
    for (const auto& metrics : sim.rank_metrics()) {
        report.total_compute_ops += metrics.compute_ops;
        report.max_compute_ops = std::max(report.max_compute_ops, metrics.compute_ops);
    }
    report.phases = net::aggregate_phase_times(sim.phases());
    if (report.count.error != core::RunError::kNone) {
        report.error = make_error(report.count.error, report.algorithm);
    }
    return report;
}

}  // namespace detail

/// Preprocesses fresh views on the query's own machine, as a one-shot run
/// does before counting: core::run_preprocessing with the algorithm's
/// core::preprocess_options, charged to `sim`. Builds nothing for TriC-style,
/// which never preprocesses, nor when `with_sink` names an algorithm that
/// cannot drive a sink — the entry point rejects that run before it charges
/// anything, so the rejected reference stays uncharged too.
inline void preprocess_in_run(net::Simulator& sim, std::vector<graph::DistGraph>& views,
                              core::Algorithm algorithm,
                              const core::AlgorithmOptions& options,
                              bool with_sink = false) {
    if (with_sink && !core::algorithm_supports_sink(algorithm)) { return; }
    if (const auto prep = core::preprocess_options(algorithm, options)) {
        core::run_preprocessing(sim, views, *prep);
    }
}

/// The one-shot reference every Engine report is compared against, built
/// from the core layer alone — no katric::Engine anywhere: fresh
/// graph::distribute views, a fresh net::Simulator, preprocess_in_run, then
/// the entry point on the now-preprocessed views. Each returns the Report an
/// Engine query of the same kind fills, so one helper compares every field.
inline Report oneshot_count(const graph::CsrGraph& g, const core::RunSpec& spec,
                            const core::TriangleSink* sink = nullptr) {
    return detail::oneshot(
        Query::kCount, g, spec,
        [&](Report& report, net::Simulator& sim, detail::Views& views) {
            preprocess_in_run(sim, views, spec.algorithm, spec.options, sink != nullptr);
            report.count = core::dispatch_algorithm(sim, views, spec, sink);
        });
}

inline Report oneshot_lcc(const graph::CsrGraph& g, const core::RunSpec& spec,
                          net::RankPool& pool = net::RankPool::shared()) {
    return detail::oneshot(
        Query::kLcc, g, spec,
        [&](Report& report, net::Simulator& sim, detail::Views& views) {
            preprocess_in_run(sim, views, spec.algorithm, spec.options,
                              /*with_sink=*/true);
            auto result = core::compute_distributed_lcc(sim, views, g, spec);
            report.count = std::move(result.count);
            report.delta = std::move(result.delta);
            report.lcc = std::move(result.lcc);
            report.postprocess_time = result.postprocess_time;
        },
        pool);
}

inline Report oneshot_enumerate(const graph::CsrGraph& g, const core::RunSpec& spec,
                                net::RankPool& pool = net::RankPool::shared()) {
    return detail::oneshot(
        Query::kEnumerate, g, spec,
        [&](Report& report, net::Simulator& sim, detail::Views& views) {
            report.found_per_rank.assign(spec.num_ranks, 0);
            // Per finder: different finders may call the sink concurrently.
            std::vector<std::vector<core::Triangle>> found(spec.num_ranks);
            const core::TriangleSink sink = [&](core::Rank finder, core::VertexId v,
                                                core::VertexId u, core::VertexId w) {
                std::array<core::VertexId, 3> t{v, u, w};
                std::sort(t.begin(), t.end());
                found[finder].push_back(core::Triangle{t[0], t[1], t[2]});
                ++report.found_per_rank[finder];
            };
            preprocess_in_run(sim, views, spec.algorithm, spec.options,
                              /*with_sink=*/true);
            report.count = core::dispatch_algorithm(sim, views, spec, &sink);
            for (const auto& part : found) {
                report.triangles.insert(report.triangles.end(), part.begin(), part.end());
            }
            std::sort(report.triangles.begin(), report.triangles.end());
        },
        pool);
}

/// The AMQ pipeline is CETRIC-AMQ whatever spec.algorithm says.
inline Report oneshot_approx(const graph::CsrGraph& g, core::RunSpec spec,
                             const core::AmqOptions& amq) {
    spec.algorithm = core::Algorithm::kCetric;
    return detail::oneshot(
        Query::kApprox, g, spec,
        [&](Report& report, net::Simulator& sim, detail::Views& views) {
            preprocess_in_run(sim, views, spec.algorithm, spec.options);
            auto result = core::count_triangles_cetric_amq(sim, views, spec, amq);
            report.count = std::move(result.metrics);
            report.estimated_triangles = result.estimated_triangles;
            report.exact_type12 = result.exact_type12;
            report.estimated_type3 = result.estimated_type3;
        });
}

}  // namespace katric::test
