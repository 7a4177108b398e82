#pragma once

#include <vector>

#include "engine.hpp"

namespace katric::test {

/// "Run query X on graph G under spec S" for tests that need no more: each
/// helper builds a temporary katric::Engine, runs one query, and returns the
/// core-layer result type (or the Report, where the core layer has none).
/// The equivalence suites compare Engines against support/oneshot.hpp's
/// core-only reference instead.
inline core::CountResult engine_count(const graph::CsrGraph& g,
                                      const core::RunSpec& spec,
                                      const core::TriangleSink* sink = nullptr) {
    const Engine engine(g, Config::from_run_spec(spec));
    return engine.count(sink).count;
}

inline core::LccResult engine_lcc(const graph::CsrGraph& g, const core::RunSpec& spec) {
    const Engine engine(g, Config::from_run_spec(spec));
    auto report = engine.lcc();
    core::LccResult result;
    result.count = std::move(report.count);
    result.delta = std::move(report.delta);
    result.lcc = std::move(report.lcc);
    result.postprocess_time = report.postprocess_time;
    return result;
}

inline core::AmqResult engine_approx(const graph::CsrGraph& g,
                                     const core::RunSpec& spec,
                                     const core::AmqOptions& amq) {
    const Engine engine(g, Config::from_run_spec(spec));
    auto report = engine.approx_count(amq);
    core::AmqResult result;
    result.estimated_triangles = report.estimated_triangles;
    result.exact_type12 = report.exact_type12;
    result.estimated_type3 = report.estimated_type3;
    result.metrics = std::move(report.count);
    return result;
}

inline Report engine_stream(const graph::CsrGraph& initial,
                            const std::vector<stream::EdgeBatch>& batches,
                            const Config& config,
                            const stream::BatchObserver& observer = {}) {
    const Engine engine(initial, config);
    return engine.stream(batches, observer);
}

/// Every rank's dynamic view of `g` under the config's partition strategy,
/// for tests that drive stream::IncrementalCounter directly.
inline std::vector<stream::DynamicDistGraph> dynamic_views(const graph::CsrGraph& g,
                                                           const Config& config) {
    return stream::distribute_dynamic(g, core::make_partition(g, config.run_spec()));
}

}  // namespace katric::test
