#pragma once

// The four workloads and the layer replays they share. Every call into the
// library goes through its public headers; nothing here uses the one-shot
// shims, StreamSession::result(), hoist_preprocess_build or the trace
// checker.

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "engine.hpp"
#include "harness.hpp"

namespace katric::benchmark {

/// Generator seed of every workload's base graph and of stream-churn's churn.
/// --seed removes a random 1% of the base graph's edges, so each seed gives
/// another instance around one base. Drawing the whole graph from --seed
/// does not work at these sizes: a power-law graph's exact per-PE maxima
/// swing by tens of percent between generator seeds, and a fresh vertex
/// labelling alone still moves them by 5–10%.
inline constexpr std::uint64_t kBaseSeed = 2023;

/// Ops below this many make p90 rest on fewer than ten samples beyond it.
inline constexpr std::size_t kMinOps = 100;

/// Slices a traced run's loop is cut into, alternating between the untraced
/// and the traced engine so that both see the same host speed, which
/// drifts over seconds.
inline constexpr int kTraceSlices = 16;

/// Requests outstanding in every serving loop, all from one client thread.
inline constexpr int kServeInFlight = 2;
/// Workers of every serving loop: two, never more than the machine's cores.
[[nodiscard]] int serve_threads();
/// Requests of the serve-layer probe that traced runs of the workloads
/// without a serving loop make.
inline constexpr std::size_t kServeProbeRequests = 16;

/// R-MAT(scale, 8·2^scale edge slots) relabelled by a random permutation,
/// less a random 1% of its edges drawn from --seed: skewed degrees and no
/// ID locality (the social-network proxy recipe).
[[nodiscard]] graph::CsrGraph shuffled_rmat(std::uint32_t scale, const Options& options);

/// Warm engine configuration every workload shares: preprocessing built
/// once at construction and its recorded cost charged to every query, so
/// simulated metrics equal a one-shot run's (loading excluded,
/// preprocessing included).
[[nodiscard]] Config warm_charged(Config config);

/// `config` with the library's own observability on: the metrics registry,
/// and the Chrome trace written to <out>/<stem>.engine-trace.json.
[[nodiscard]] Config with_tracing(Config config, const Options& options);

/// Exact answers from the sequential kernels.
struct Oracle {
    std::uint64_t triangles = 0;
    std::vector<std::uint64_t> delta;  ///< per-vertex Δ; empty unless requested
};
[[nodiscard]] Oracle make_oracle(const graph::CsrGraph& graph, bool with_delta);

/// Runs one request directly (no serve layer) on the engine.
Report run_direct(Engine& engine, const ServeRequest& request);

/// Expected reports for a fixed cycle of queries: each position run once,
/// directly on the engine, and checked against the oracle. Every later
/// answer at that position — direct or served — must match it bit for bit.
class References {
public:
    References(Engine& engine, std::vector<ServeRequest> cycle, const Oracle& oracle,
               Result& result);

    [[nodiscard]] const std::vector<ServeRequest>& cycle() const noexcept {
        return cycle_;
    }
    /// Empty when `report` matches position `pos`; otherwise the difference.
    [[nodiscard]] std::string mismatch(const Report& report, std::size_t pos) const;
    /// Mean simulated cost per op over one cycle (peak buffer: the max).
    [[nodiscard]] SimCost sim_cost() const;

private:
    std::vector<ServeRequest> cycle_;
    std::vector<Report> reports_;
};

/// Client-side record of a closed serving loop.
struct ServedLog {
    OpLog log;                                  ///< submit → ready, every request
    std::map<Query, std::vector<double>> by_kind;  ///< the same, split by query kind
    std::size_t rejected = 0;
    std::size_t shed_deadline = 0;
    int threads = 0;
};

/// Closed loop with kServeInFlight requests outstanding from this one
/// thread, cycling `refs.cycle()` from `cursor`, on a fresh ServeSession of
/// serve_threads() workers: submits until `seconds` have passed and
/// `min_ops` requests were sent, then drains. Every answer is checked.
[[nodiscard]] ServedLog serve_closed_loop(Engine& engine, const References& refs,
                                          std::size_t& cursor, double seconds,
                                          std::size_t min_ops, Result& result,
                                          SpanRecorder& spans);

/// serve.* per-layer metrics from a closed loop served by `engine`, whose
/// metrics registry must have recorded nothing but that loop.
void emit_serve_layer(Result& result, const Engine& engine, const ServedLog& served);

/// social-global, web-local, serve-hardened.
void run_query_workload(const Options& options, Result& result, SpanRecorder& spans);

/// stream-churn.
void run_stream_workload(const Options& options, Result& result, SpanRecorder& spans);

/// stream.* per-layer metrics for a workload whose ops do not stream: a
/// short churn on its graph through a streaming session of its config.
void probe_stream_layer(const graph::CsrGraph& graph, const Config& config,
                        const Options& options, Result& result, SpanRecorder& spans);

/// The Engine constructor's stages — core::make_partition, graph::distribute,
/// core::run_preprocessing — timed from outside on views the benchmark owns.
/// A traced run builds them once beside each Engine construction of its
/// setup; the query-layer replays then dispatch on the last pass's views.
class OwnedSetup {
public:
    OwnedSetup(const graph::CsrGraph& graph, Config config)
        : graph_(&graph), config_(std::move(config)) {}

    /// One timed pass of the three stages.
    void build(SpanRecorder& spans);
    /// graph.partition_s, graph.distribute_s, core.preprocess_s (medians over
    /// the passes) and core.preprocess_sim_s.
    void emit(Result& result) const;

    [[nodiscard]] const std::vector<graph::DistGraph>& views() const noexcept {
        return views_;
    }
    [[nodiscard]] const core::PreprocessCosts& costs() const noexcept { return costs_; }

private:
    const graph::CsrGraph* graph_;
    Config config_;
    std::vector<graph::DistGraph> views_;
    core::PreprocessCosts costs_;
    Summary partition_s_;
    Summary distribute_s_;
    Summary preprocess_s_;
    double preprocess_sim_s_ = 0.0;
};

/// Inputs of the layer replays (core, engine, seq, net, fault).
struct LayerInput {
    const graph::CsrGraph* graph = nullptr;
    Config config;
    /// The algorithms the workload's counts run.
    std::vector<core::Algorithm> algorithms;
    std::uint64_t oracle_triangles = 0;
    /// An untraced engine over `graph` with `config`, for the facade pairing.
    Engine* engine = nullptr;
    /// The benchmark's own views of `graph`, built by the traced setup.
    const OwnedSetup* setup = nullptr;
    std::size_t repetitions = 5;
};

/// The end every traced run shares: obs.trace_overhead_frac from the
/// alternating untraced and traced slices, seq.calls.<kernel> and
/// seq.hub_hit_rate from the traced engine's dispatch mix, then the layer
/// replays — each layer's public calls timed from outside on the workload's
/// own graph and configuration (graph.*, core.*, engine.*, seq.kernel*,
/// net.*, fault.*).
void finish_traced_run(const OpLog& untraced, const OpLog& traced_ops,
                       const Engine& traced, const LayerInput& layers, Result& result,
                       SpanRecorder& spans);

}  // namespace katric::benchmark
