// social-global, web-local and serve-hardened: closed loops of Engine
// queries over one warm engine, each answer checked bit for bit against a
// reference run that was itself checked against the sequential oracle.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <future>
#include <optional>
#include <thread>
#include <utility>

#include "gen/rhg.hpp"
#include "gen/rmat.hpp"
#include "graph/builder.hpp"
#include "graph/permutation.hpp"
#include "seq/edge_iterator.hpp"
#include "util/hash.hpp"
#include "workloads.hpp"

namespace katric::benchmark {

namespace {

constexpr std::uint64_t kThinningSeed = 2;
constexpr std::uint64_t kThinningPercent = 1;

const std::vector<core::Algorithm> kCountAlgorithms = {
    core::Algorithm::kDitric, core::Algorithm::kDitric2, core::Algorithm::kCetric,
    core::Algorithm::kCetric2};

/// `base` without a random kThinningPercent of its edges, drawn from --seed.
graph::CsrGraph thinned(const graph::CsrGraph& base, const Options& options) {
    auto edges = graph::to_edge_list(base);
    const auto seed = options.derived_seed(kThinningSeed);
    std::erase_if(edges.edges(), [&](const graph::Edge& edge) {
        return hash64_seeded((edge.u << 32) | edge.v, seed) % 100 < kThinningPercent;
    });
    return graph::build_undirected(std::move(edges), base.num_vertices());
}

struct QueryWorkload {
    graph::CsrGraph graph;
    Config config;
    std::vector<ServeRequest> cycle;
    /// Through Engine::serve rather than direct calls from the client thread.
    bool served = false;
};

ServeRequest request_for(Query query, std::optional<core::Algorithm> algorithm = {}) {
    ServeRequest request;
    request.query = query;
    request.options.algorithm = algorithm;
    return request;
}

std::string op_name(const ServeRequest& request) {
    std::string name = query_name(request.query);
    if (request.options.algorithm) {
        name += ':';
        name += core::algorithm_name(*request.options.algorithm);
    }
    return name;
}

QueryWorkload make_workload(const Options& options) {
    QueryWorkload workload;
    if (options.workload == "social-global") {
        // live-journal recipe at 4x scale, merge kernel: no locality, so
        // most triangles are found in the global phase.
        workload.graph = shuffled_rmat(options.smoke ? 10 : 15, options);
        workload.config = warm_charged(Config::preset("paper-ditric"));
        for (const auto algorithm : kCountAlgorithms) {
            workload.cycle.push_back(request_for(Query::kCount, algorithm));
        }
    } else if (options.workload == "web-local") {
        // uk-2007-05 recipe in angular order: high locality, so the local
        // phase and the (adaptive, hub-bitmap) kernels carry the work.
        const graph::VertexId n = graph::VertexId{1} << (options.smoke ? 11 : 16);
        workload.graph =
            thinned(gen::generate_rhg_local(n, 32.0, 2.4, kBaseSeed), options);
        workload.config = warm_charged(Config::preset("warm-monitor"));
        for (const auto algorithm : kCountAlgorithms) {
            workload.cycle.push_back(request_for(Query::kCount, algorithm));
        }
    } else {
        // The production posture: hardened message layer, metrics, two
        // workers; count : lcc : approx = 2 : 1 : 1.
        workload.graph = shuffled_rmat(options.smoke ? 9 : 14, options);
        workload.config = warm_charged(Config::preset("hardened-serve"));
        workload.config.serve_threads = serve_threads();
        workload.cycle = {request_for(Query::kCount), request_for(Query::kLcc),
                          request_for(Query::kCount), request_for(Query::kApprox)};
        workload.served = true;
    }
    return workload;
}

bool same_sim_metrics(const core::CountResult& a, const core::CountResult& b) {
    return a.total_time == b.total_time && a.max_messages_sent == b.max_messages_sent
           && a.max_words_sent == b.max_words_sent
           && a.total_messages_sent == b.total_messages_sent
           && a.total_words_sent == b.total_words_sent
           && a.max_peak_buffer_words == b.max_peak_buffer_words;
}

/// Direct calls from this thread, one after another, for at least
/// `seconds` and `min_ops` operations.
OpLog run_sequential(Engine& engine, const References& refs, std::size_t& cursor,
                     double seconds, std::size_t min_ops, Result& result,
                     SpanRecorder& spans) {
    OpLog log;
    const WallTimer window;
    while (log.ops() < min_ops || window.elapsed_seconds() < seconds) {
        const auto pos = cursor++ % refs.cycle().size();
        const auto& request = refs.cycle()[pos];
        Report report;
        spans.begin(op_name(request));
        const double latency = timed([&] { report = run_direct(engine, request); });
        log.add(latency, pos, window.elapsed_seconds());
        spans.end();
        const auto why = refs.mismatch(report, pos);
        result.op(why.empty(), op_name(request) + ": " + why);
    }
    log.window_seconds = window.elapsed_seconds();
    return log;
}

void merge(ServedLog& into, const ServedLog& from) {
    into.log.merge(from.log);
    for (const auto& [query, latencies] : from.by_kind) {
        auto& target = into.by_kind[query];
        target.insert(target.end(), latencies.begin(), latencies.end());
    }
    into.rejected += from.rejected;
    into.shed_deadline += from.shed_deadline;
    into.threads = from.threads;
}

/// Traced run: the workload's loop in short alternating slices on the
/// untraced engine and on a traced one (metrics and trace file on; the ratio
/// of their typical latencies is the tracing overhead), the serve layer's
/// numbers from the traced engine, then the layer replays and the
/// stream-layer probe.
void trace_query_workload(const Options& options, const QueryWorkload& workload,
                          const Oracle& oracle, Engine& plain, const OwnedSetup& owned,
                          const References& refs, Result& result, SpanRecorder& spans) {
    std::optional<Engine> traced;
    {
        const SpanRecorder::Scope scope(spans, "setup (traced engine)");
        traced.emplace(workload.graph, with_tracing(workload.config, options));
    }

    ServedLog served;
    if (!workload.served) {
        // Serve-layer probe first, while the traced registry holds nothing else.
        const SpanRecorder::Scope scope(spans, "serve probe");
        std::size_t cursor = 0;
        const auto requests = options.smoke ? 4 : kServeProbeRequests;
        served = serve_closed_loop(*traced, refs, cursor, 0.0, requests, result, spans);
        emit_serve_layer(result, *traced, served);
    }
    const double slice_seconds = options.seconds / kTraceSlices;
    std::size_t plain_cursor = 0;
    std::size_t traced_cursor = 0;
    OpLog plain_log;
    OpLog traced_log;
    for (int slice = 0; slice < kTraceSlices; ++slice) {
        const bool use_traced = slice % 2 == 1;
        const SpanRecorder::Scope scope(spans,
                                        use_traced ? "ops (traced)" : "ops (untraced)");
        auto& engine = use_traced ? *traced : plain;
        auto& cursor = use_traced ? traced_cursor : plain_cursor;
        OpLog log;
        if (workload.served) {
            const auto slice_served =
                serve_closed_loop(engine, refs, cursor, slice_seconds, 1, result, spans);
            log = slice_served.log;
            if (use_traced) { merge(served, slice_served); }
        } else {
            log = run_sequential(engine, refs, cursor, slice_seconds, 1, result, spans);
        }
        (use_traced ? traced_log : plain_log).merge(log);
    }
    if (workload.served) { emit_serve_layer(result, *traced, served); }
    probe_stream_layer(workload.graph, workload.config, options, result, spans);

    LayerInput layers;
    layers.graph = &workload.graph;
    layers.config = workload.config;
    for (const auto& request : workload.cycle) {
        const auto algorithm =
            request.options.algorithm.value_or(workload.config.algorithm);
        if (std::find(layers.algorithms.begin(), layers.algorithms.end(), algorithm)
            == layers.algorithms.end()) {
            layers.algorithms.push_back(algorithm);
        }
    }
    layers.oracle_triangles = oracle.triangles;
    layers.engine = &plain;
    layers.setup = &owned;
    layers.repetitions = options.smoke ? 2 : 5;
    finish_traced_run(plain_log, traced_log, *traced, layers, result, spans);
}

}  // namespace

graph::CsrGraph shuffled_rmat(std::uint32_t scale, const Options& options) {
    const auto n = graph::VertexId{1} << scale;
    return thinned(graph::apply_permutation(gen::generate_rmat(scale, 8 * n, kBaseSeed),
                                            graph::random_permutation(n, kBaseSeed)),
                   options);
}

int serve_threads() {
    return static_cast<int>(std::clamp(std::thread::hardware_concurrency(), 1U, 2U));
}

Config warm_charged(Config config) {
    config.reuse_preprocessing = true;
    config.charge_reused_preprocessing = true;
    return config;
}

Config with_tracing(Config config, const Options& options) {
    config.metrics = true;
    config.trace_out = options.out_dir + "/" + options.stem() + ".engine-trace.json";
    return config;
}

Oracle make_oracle(const graph::CsrGraph& graph, bool with_delta) {
    Oracle oracle;
    oracle.triangles = seq::count_edge_iterator(graph).triangles;
    if (with_delta) { oracle.delta = seq::per_vertex_triangles(graph); }
    return oracle;
}

Report run_direct(Engine& engine, const ServeRequest& request) {
    switch (request.query) {
        case Query::kLcc: return engine.lcc(request.options);
        case Query::kApprox: return engine.approx_count(request.options);
        default: return engine.count(request.options);
    }
}

References::References(Engine& engine, std::vector<ServeRequest> cycle,
                       const Oracle& oracle, Result& result)
    : cycle_(std::move(cycle)) {
    for (const auto& request : cycle_) {
        auto report = run_direct(engine, request);
        const auto name = op_name(request) + " reference";
        result.expect(report.ok(), name + " failed: " + report.error.message);
        if (request.query == Query::kApprox) {
            result.expect(std::isfinite(report.estimated_triangles)
                              && report.exact_type12 <= oracle.triangles,
                          name + " gave an impossible estimate");
        } else {
            result.expect(report.count.triangles == oracle.triangles,
                          name + " counted " + std::to_string(report.count.triangles)
                              + " triangles, the sequential kernel "
                              + std::to_string(oracle.triangles));
        }
        if (request.query == Query::kLcc) {
            result.expect(report.delta == oracle.delta,
                          name + ": Δ differs from seq::per_vertex_triangles");
        }
        reports_.push_back(std::move(report));
    }
}

std::string References::mismatch(const Report& report, std::size_t pos) const {
    const auto& expected = reports_[pos];
    if (!report.error.ok()) { return "error: " + report.error.message; }
    if (report.count.oom) { return "ran out of simulated memory"; }
    if (report.count.triangles != expected.count.triangles) {
        return "counted " + std::to_string(report.count.triangles) + ", expected "
               + std::to_string(expected.count.triangles);
    }
    if (!same_sim_metrics(report.count, expected.count)) {
        return "simulated metrics differ from the reference run";
    }
    if (report.delta != expected.delta) { return "Δ differs from the reference"; }
    if (report.estimated_triangles != expected.estimated_triangles) {
        return "estimate differs from the sequential engine's";
    }
    return {};
}

SimCost References::sim_cost() const {
    SimCost cost;
    for (const auto& report : reports_) {
        cost.time_s += report.count.total_time;
        cost.max_words_pe += static_cast<double>(report.count.max_words_sent);
        cost.max_msgs_pe += static_cast<double>(report.count.max_messages_sent);
        cost.peak_buffer_words =
            std::max(cost.peak_buffer_words,
                     static_cast<double>(report.count.max_peak_buffer_words));
    }
    const auto n = static_cast<double>(reports_.size());
    cost.time_s /= n;
    cost.max_words_pe /= n;
    cost.max_msgs_pe /= n;
    return cost;
}

ServedLog serve_closed_loop(Engine& engine, const References& refs, std::size_t& cursor,
                            double seconds, std::size_t min_ops, Result& result,
                            SpanRecorder& spans) {
    struct Slot {
        std::future<Report> future;
        WallTimer timer;
        std::size_t pos = 0;
        bool busy = false;
    };
    ServedLog served;
    served.threads = serve_threads();
    std::vector<Slot> slots(kServeInFlight);
    auto session = engine.serve(ServeOptions{served.threads, 0});
    const WallTimer window;
    std::size_t submitted = 0;
    const auto submit = [&](std::size_t lane) {
        auto& slot = slots[lane];
        slot.pos = cursor++ % refs.cycle().size();
        spans.begin(op_name(refs.cycle()[slot.pos]), static_cast<int>(lane) + 1);
        slot.timer.restart();
        slot.future = session.submit(refs.cycle()[slot.pos]);
        slot.busy = true;
        ++submitted;
    };
    for (std::size_t lane = 0; lane < slots.size(); ++lane) { submit(lane); }
    std::size_t busy = slots.size();
    while (busy > 0) {
        bool progressed = false;
        for (std::size_t lane = 0; lane < slots.size(); ++lane) {
            auto& slot = slots[lane];
            if (!slot.busy
                || slot.future.wait_for(std::chrono::seconds(0))
                       != std::future_status::ready) {
                continue;
            }
            const double latency = slot.timer.elapsed_seconds();
            spans.end(static_cast<int>(lane) + 1);
            const Report report = slot.future.get();
            slot.busy = false;
            --busy;
            progressed = true;
            const auto& request = refs.cycle()[slot.pos];
            served.log.add(latency, slot.pos, window.elapsed_seconds());
            served.by_kind[request.query].push_back(latency);
            const auto why = refs.mismatch(report, slot.pos);
            result.op(why.empty(), "served " + op_name(request) + ": " + why);
            if (submitted < min_ops || window.elapsed_seconds() < seconds) {
                submit(lane);
                ++busy;
            }
        }
        if (!progressed && busy > 0) {
            // Block briefly on the oldest request rather than spin: the
            // workers need every core.
            Slot* oldest = nullptr;
            for (auto& slot : slots) {
                if (!slot.busy) { continue; }
                if (oldest == nullptr
                    || slot.timer.elapsed_seconds() > oldest->timer.elapsed_seconds()) {
                    oldest = &slot;
                }
            }
            oldest->future.wait_for(std::chrono::microseconds(200));
        }
    }
    served.log.window_seconds = window.elapsed_seconds();
    const auto stats = session.stats();
    served.rejected = stats.rejected;
    served.shed_deadline = stats.shed_deadline;
    return served;
}

void emit_serve_layer(Result& result, const Engine& engine, const ServedLog& served) {
    const auto& registry = engine.observability()->registry();
    double busy_seconds = 0.0;
    for (const auto query : {Query::kCount, Query::kLcc, Query::kApprox}) {
        const auto* summary =
            registry.summary("query." + query_name(query) + ".latency_seconds");
        if (summary != nullptr && summary->count() > 0) {
            busy_seconds += summary->mean() * static_cast<double>(summary->count());
        }
    }
    const auto* service = registry.summary("query.count.latency_seconds");
    const double service_p50 =
        service != nullptr && service->count() > 0 ? service->percentile(0.5) : 0.0;
    Summary client_count;
    if (const auto it = served.by_kind.find(Query::kCount); it != served.by_kind.end()) {
        for (const double seconds : it->second) { client_count.add(seconds); }
    }
    const double queue_wait =
        client_count.count() > 0 ? client_count.percentile(0.5) - service_p50 : 0.0;
    const double capacity = served.log.window_seconds * served.threads;
    result.add("serve.service_p50_s", service_p50, "s");
    result.add("serve.queue_wait_p50_s", queue_wait, "s");
    result.add("serve.worker_util", capacity > 0.0 ? busy_seconds / capacity : 0.0,
               "frac");
    result.add("serve.rejected", static_cast<double>(served.rejected), "count");
    result.add("serve.shed_deadline", static_cast<double>(served.shed_deadline), "count");
}

void run_query_workload(const Options& options, Result& result, SpanRecorder& spans) {
    const SpanRecorder::Scope root(spans, "workload " + options.workload);
    QueryWorkload workload;
    {
        const SpanRecorder::Scope scope(spans, "input");
        workload = make_workload(options);
    }
    const bool wants_delta = std::any_of(
        workload.cycle.begin(), workload.cycle.end(),
        [](const ServeRequest& request) { return request.query == Query::kLcc; });
    Oracle oracle;
    {
        const SpanRecorder::Scope scope(spans, "oracle");
        oracle = make_oracle(workload.graph, wants_delta);
    }

    std::optional<Engine> engine;
    OwnedSetup owned(workload.graph, workload.config);
    {
        // A traced run constructs the engine kSetupRepetitions times, each
        // beside one pass of the benchmark's own setup stages. An untraced
        // run times its constructions during the timed phase.
        const SpanRecorder::Scope scope(spans, "setup");
        for (int i = 0; i < (options.trace ? kSetupRepetitions : 1); ++i) {
            engine.reset();
            spans.begin("engine.construct");
            engine.emplace(workload.graph, workload.config);
            spans.end();
            if (options.trace) { owned.build(spans); }
        }
    }
    std::optional<References> refs;
    {
        const SpanRecorder::Scope scope(spans, "references");
        refs.emplace(*engine, workload.cycle, oracle, result);
    }

    if (options.trace) {
        trace_query_workload(options, workload, oracle, *engine, owned, *refs, result,
                             spans);
        return;
    }
    std::size_t cursor = 0;
    const auto segment = [&](double seconds, std::size_t min_ops) {
        return workload.served
                   ? serve_closed_loop(*engine, *refs, cursor, seconds, min_ops, result,
                                       spans)
                         .log
                   : run_sequential(*engine, *refs, cursor, seconds, min_ops, result,
                                    spans);
    };
    const auto construct = [&] {
        std::optional<Engine> spare;
        return timed([&] { spare.emplace(workload.graph, workload.config); });
    };
    HostProbe probe;
    const auto phase = run_timed_phase(options.seconds, options.smoke ? 4 : kMinOps, probe,
                                       segment, construct);
    emit_end_to_end(result, phase, refs->sim_cost());
}

}  // namespace katric::benchmark
