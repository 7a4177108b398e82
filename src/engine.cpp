#include "engine.hpp"

#include <algorithm>
#include <optional>
#include <sstream>
#include <utility>

#include "stream/incremental.hpp"
#include "stream/incremental_lcc.hpp"
#include "util/assert.hpp"
#include "util/timer.hpp"

namespace katric {

namespace {

Config validated(Config config) {
    KATRIC_ASSERT_MSG(config.num_ranks >= 1, "Engine needs at least one rank");
    return config;
}

graph::Partition1D validated_partition(graph::Partition1D partition,
                                       const graph::CsrGraph& graph,
                                       const Config& config) {
    KATRIC_ASSERT_MSG(partition.num_ranks() == config.num_ranks,
                      "injected partition has " << partition.num_ranks()
                          << " ranks, Config::num_ranks is " << config.num_ranks);
    KATRIC_ASSERT_MSG(partition.num_vertices() == graph.num_vertices(),
                      "injected partition covers " << partition.num_vertices()
                          << " vertices, graph has " << graph.num_vertices());
    return partition;
}

std::optional<fault::FaultInjector> parse_injector(const std::string& fault_spec) {
    if (fault_spec.empty()) { return std::nullopt; }
    return fault::FaultInjector(fault::FaultPlan::parse(fault_spec));
}

/// The constructor's one preprocessing pass: a throwaway machine runs the
/// front half — ghost-degree exchange, orientation, hub bitmaps when the
/// configured kernels want them — on the freshly distributed views and
/// records its cost ledger into `costs` for every later query to replay.
std::vector<graph::DistGraph> preprocessed(std::vector<graph::DistGraph> views,
                                           const Config& config,
                                           obs::Observability* obs,
                                           core::PreprocessCosts& costs) {
    WallTimer timer;
    net::Simulator sim(config.num_ranks, config.network);
    if (obs != nullptr) { sim.record_phase_details(true); }
    core::run_preprocessing(sim, views, config.options, &costs);
    // The build is part of the session's observable timeline even though no
    // query ran it.
    if (obs != nullptr) {
        obs->observe_query("preprocess", sim, timer.elapsed_seconds());
    }
    return views;
}

/// Every rank's dynamic view, copied from its preprocessed static view.
std::vector<stream::DynamicDistGraph> dynamic_views(
    const std::vector<graph::DistGraph>& views) {
    std::vector<stream::DynamicDistGraph> dynamic;
    dynamic.reserve(views.size());
    for (const auto& view : views) {
        dynamic.push_back(stream::DynamicDistGraph::from_view(view));
    }
    return dynamic;
}

/// Folds the machine's per-PE compute counters into a report's telemetry.
void accumulate_ops(Report& report, const net::Simulator& sim) {
    for (const auto& metrics : sim.rank_metrics()) {
        report.total_compute_ops += metrics.compute_ops;
        report.max_compute_ops = std::max(report.max_compute_ops, metrics.compute_ops);
    }
}

}  // namespace

// --- Engine ------------------------------------------------------------

Engine::Engine(const graph::CsrGraph& graph, Config config)
    : Engine(graph, config, core::make_partition(graph, validated(config).run_spec())) {}

Engine::Engine(const graph::CsrGraph& graph, Config config, graph::Partition1D partition)
    : graph_(&graph),
      config_(validated(std::move(config))),
      partition_(validated_partition(std::move(partition), graph, config_)),
      obs_(obs::Observability::acquire(config_.metrics, config_.trace_out)),
      injector_(parse_injector(config_.fault_spec)),
      views_(preprocessed(graph::distribute(graph, partition_), config_, obs_.get(),
                          costs_)) {}

void Engine::arm_simulator(net::Simulator& sim, const QueryOptions& query,
                           QueryGuard& guard) const {
    const double deadline = query.deadline_seconds.value_or(config_.deadline_seconds);
    const bool wants_cancel = deadline > 0.0 || query.cancel != nullptr;
    const bool wants_harden = hardening_enabled();
    const bool wants_timeout = config_.phase_timeout > 0.0;
    if (!wants_harden && !wants_cancel && !wants_timeout) {
        return;  // the zero-overhead path
    }
    if (deadline > 0.0) { guard.token.set_deadline_in(deadline); }
    if (query.cancel != nullptr) { guard.token.chain(query.cancel); }
    net::HardenOptions harden;
    // Deadline/cancel without --harden arms only the superstep boundary
    // check — no framing, no checksum cost on the payload path.
    harden.frame = wants_harden;
    if (wants_harden) {
        harden.injector = injector_ ? &*injector_ : nullptr;
        harden.stats = &guard.stats;
    }
    harden.cancel = wants_cancel ? &guard.token : nullptr;
    const auto policy = query.recovery.value_or(config_.recovery);
    harden.max_retries =
        policy == fault::RecoveryPolicy::kFailFast ? 0 : config_.max_retries;
    harden.phase_timeout = config_.phase_timeout;
    sim.harden(harden);
    guard.armed = true;
}

void Engine::record_faults(Report& report, const QueryGuard& guard) const {
    if (!guard.armed) { return; }
    report.hardened = hardening_enabled();
    report.faults = guard.stats;
    if (obs_ && obs_->metrics_enabled()) {
        auto& registry = obs_->registry();
        registry.count("fault.frames_sent", guard.stats.frames_sent);
        if (const auto injected = guard.stats.injected_total(); injected > 0) {
            registry.count("fault.injected", injected);
        }
        if (guard.stats.corrupt_detected > 0) {
            registry.count("fault.corrupt_detected", guard.stats.corrupt_detected);
        }
        if (guard.stats.duplicates_suppressed > 0) {
            registry.count("fault.duplicates_suppressed",
                           guard.stats.duplicates_suppressed);
        }
        if (guard.stats.retransmits > 0) {
            registry.count("fault.retransmits", guard.stats.retransmits);
        }
        if (report.error.domain == Error::Domain::kNet) {
            registry.count("fault.query_failed");
        }
        if (report.degraded) { registry.count("fault.query_degraded"); }
    }
}

std::string Engine::metrics_summary() const { return obs_ ? obs_->summary() : ""; }

core::Preprocess Engine::preprocess() const {
    core::Preprocess prep;
    prep.mode = config_.reuse_preprocessing && !config_.charge_reused_preprocessing
                    ? core::Preprocess::Mode::kSkip
                    : core::Preprocess::Mode::kCharge;
    prep.costs = &costs_;
    return prep;
}

core::RunSpec Engine::query_spec(const QueryOptions& query) const {
    auto spec = config_.run_spec();
    if (query.algorithm) { spec.algorithm = *query.algorithm; }
    // The dispatch-mix sink is wired per query (run_query's stack-local
    // KernelStats, merged on finalize) — never Config itself, so flag
    // round-trips and option equality stay pure, and concurrent queries
    // never share a recording sink.
    spec.options.kernel_stats = nullptr;
    return spec;
}

void Engine::finalize(Report& report, const net::Simulator& sim, double wall_seconds,
                      const obs::KernelStats* kernel_stats) const {
    accumulate_ops(report, sim);
    report.phases = net::aggregate_phase_times(sim.phases());
    if (report.count.error != core::RunError::kNone) {
        report.error = make_error(report.count.error, report.algorithm);
    }
    if (obs_) {
        obs_->observe_query(query_name(report.query), sim, wall_seconds, kernel_stats);
    }
    queries_.fetch_add(1, std::memory_order_relaxed);
}

template <typename Body>
Report Engine::run_query(Query kind, core::RunSpec spec, const QueryOptions& query,
                         bool arm, const Body& body) const {
    WallTimer timer;
    // Query-local dispatch-mix recording, one sink per rank: merged into the
    // session totals on finalize, so neither concurrent queries nor the
    // ranks of one start round ever write one shared sink.
    const bool record_kernels = obs_ && obs_->metrics_enabled();
    std::optional<obs::KernelStatsByRank> kernel_stats;
    if (record_kernels) {
        kernel_stats.emplace(spec.num_ranks);
        spec.options.kernel_stats = &*kernel_stats;
    }
    const auto prep = preprocess();
    Report report;
    report.query = kind;
    report.algorithm = spec.algorithm;
    report.reused_preprocessing = prep.mode == core::Preprocess::Mode::kSkip;
    // The guard is declared before the simulator: arm_simulator lends the
    // simulator the guard's stats/cancel pointers, so the borrower must be
    // destroyed first.
    QueryGuard guard;
    net::Simulator sim(spec.num_ranks, spec.network);
    if (obs_) { sim.record_phase_details(true); }
    if (arm) { arm_simulator(sim, query, guard); }
    try {
        body(report, sim, spec, prep);
    } catch (const net::OomError&) {
        report.count.oom = true;
        core::fill_metrics(sim, report.count);
    } catch (const net::FaultError& e) {
        report.error = make_error(e.code(), e.what());
        core::fill_metrics(sim, report.count);
    } catch (const net::CancelledError&) {
        report.error = make_error(ServeError::kDeadline);
        core::fill_metrics(sim, report.count);
    }
    record_faults(report, guard);
    const obs::KernelStats merged =
        record_kernels ? kernel_stats->merged() : obs::KernelStats{};
    finalize(report, sim, timer.elapsed_seconds(), record_kernels ? &merged : nullptr);
    return report;
}

Report Engine::count(const core::TriangleSink* sink, const QueryOptions& query) const {
    Report report = run_query(
        Query::kCount, query_spec(query), query, /*arm=*/true,
        [&](Report& out, net::Simulator& sim, const core::RunSpec& spec,
            const core::Preprocess& prep) {
            out.count = core::dispatch_algorithm(sim, views_, spec, sink, prep);
        });
    if (sink == nullptr && report.error.domain == Error::Domain::kNet
        && query.recovery.value_or(config_.recovery) == fault::RecoveryPolicy::kDegrade) {
        // Graceful degradation: the exact count could not be recovered, so
        // answer with the AMQ estimate — computed with injection off (the
        // faulty schedule already had its retries) — and say so explicitly.
        Report fallback = approx(query, /*arm=*/false);
        fallback.query = Query::kCount;
        fallback.degraded = true;
        fallback.hardened = report.hardened;
        fallback.faults = report.faults;  // what the failed exact attempt saw
        if (obs_ && obs_->metrics_enabled()) {
            obs_->registry().count("fault.query_degraded");
        }
        return fallback;
    }
    return report;
}

Report Engine::lcc(const QueryOptions& query) const {
    return run_query(Query::kLcc, query_spec(query), query, /*arm=*/true,
                     [&](Report& out, net::Simulator& sim, const core::RunSpec& spec,
                         const core::Preprocess& prep) {
                         auto result = core::compute_distributed_lcc(sim, views_, *graph_,
                                                                     spec, prep);
                         out.count = std::move(result.count);
                         out.delta = std::move(result.delta);
                         out.lcc = std::move(result.lcc);
                         out.postprocess_time = result.postprocess_time;
                     });
}

Report Engine::enumerate(const core::TriangleSink* sink,
                         const QueryOptions& query) const {
    // Per finder: the TriangleSink contract lets different finders run
    // concurrently (a parallel start round), never one finder's calls.
    std::vector<std::vector<core::Triangle>> found(config_.num_ranks);
    std::vector<std::size_t> found_per_rank(config_.num_ranks, 0);
    const core::TriangleSink collector = [&](core::Rank finder, core::VertexId v,
                                             core::VertexId u, core::VertexId w) {
        core::Triangle t{v, u, w};
        if (t.a > t.b) { std::swap(t.a, t.b); }
        if (t.b > t.c) { std::swap(t.b, t.c); }
        if (t.a > t.b) { std::swap(t.a, t.b); }
        KATRIC_ASSERT_MSG(t.a < t.b && t.b < t.c,
                          "degenerate triangle " << v << ',' << u << ',' << w);
        if (sink != nullptr) {
            (*sink)(finder, v, u, w);
        } else {
            found[finder].push_back(t);
        }
        ++found_per_rank[finder];
    };
    Report report = count(&collector, query);
    report.query = Query::kEnumerate;
    std::vector<core::Triangle> triangles;
    for (const auto& part : found) {
        triangles.insert(triangles.end(), part.begin(), part.end());
    }
    if (sink == nullptr && report.ok()) {
        std::sort(triangles.begin(), triangles.end());
        KATRIC_ASSERT_MSG(std::adjacent_find(triangles.begin(), triangles.end())
                              == triangles.end(),
                          "a triangle was enumerated more than once — the "
                          "exactly-once invariant is broken");
        KATRIC_ASSERT(triangles.size() == report.count.triangles);
    }
    report.triangles = std::move(triangles);
    report.found_per_rank = std::move(found_per_rank);
    return report;
}

Report Engine::approx(const QueryOptions& query, bool arm) const {
    auto spec = query_spec(query);
    // The AMQ query always runs the CETRIC-AMQ pipeline (exact CETRIC local
    // phase + Bloom-filter global phase), whatever Config::algorithm says —
    // label the report accordingly.
    spec.algorithm = core::Algorithm::kCetric;
    const auto& amq = query.amq ? *query.amq : config_.amq;
    return run_query(Query::kApprox, spec, query, arm,
                     [&](Report& out, net::Simulator& sim, const core::RunSpec& run,
                         const core::Preprocess& prep) {
                         auto result = core::count_triangles_cetric_amq(
                             sim, views_, run, amq, prep);
                         out.count = std::move(result.metrics);
                         out.estimated_triangles = result.estimated_triangles;
                         out.exact_type12 = result.exact_type12;
                         out.estimated_type3 = result.estimated_type3;
                     });
}

StreamSession Engine::open_stream() const {
    // With Config::maintain_lcc the LCC pass supplies both the initial count
    // and the per-vertex Δ seed in one run over the shared views.
    Report seeded = config_.maintain_lcc ? lcc() : count();
    KATRIC_ASSERT_MSG(seeded.count.error == core::RunError::kNone,
                      core::run_error_message(seeded.count.error, config_.algorithm));
    KATRIC_ASSERT_MSG(!seeded.count.oom, "initial static count ran out of memory");
    return StreamSession(views_, config_, std::move(seeded.count),
                         std::move(seeded.delta), seeded.reused_preprocessing, obs_);
}

Report Engine::stream(const std::vector<stream::EdgeBatch>& batches,
                      const stream::BatchObserver& observer) const {
    auto session = open_stream();
    for (const auto& batch : batches) {
        const auto& stats = session.ingest(batch);
        if (observer) { observer(stats); }
    }
    return session.report();
}

// --- StreamSession ------------------------------------------------------

StreamSession::StreamSession(const std::vector<graph::DistGraph>& views, Config config,
                             core::CountResult initial,
                             std::vector<std::uint64_t> initial_delta,
                             bool initial_reused,
                             std::shared_ptr<obs::Observability> obs)
    : config_(std::move(config)),
      obs_(std::move(obs)),
      initial_(std::move(initial)),
      initial_reused_(initial_reused),
      sim_(std::make_unique<net::Simulator>(config_.num_ranks, config_.network)),
      views_(std::make_unique<std::vector<stream::DynamicDistGraph>>(
          dynamic_views(views))),
      counter_(std::make_unique<stream::IncrementalCounter>(
          *sim_, *views_, config_.options, config_.stream_indirect,
          initial_.triangles)) {
    if (obs_) { sim_->record_phase_details(true); }
    if (config_.harden || !config_.fault_spec.empty()) {
        // Streaming sessions mutate the dynamic views mid-batch, so an
        // injected fault could not abort cleanly — they get the hardened
        // layer's framing/verification/dedup, but never injection (see
        // docs/robustness.md). On a reliable simulated wire this is
        // overhead-only and cannot throw.
        sim_->harden(net::HardenOptions{});
    }
    if (config_.maintain_lcc) {
        lcc_ = std::make_unique<stream::IncrementalLcc>(
            *sim_, *views_, config_.options, config_.stream_indirect, initial_delta);
        lcc_->attach(*counter_);
    }
}

StreamSession::~StreamSession() {
    // The session's simulator accumulates supersteps across every ingested
    // batch; its timeline goes to the trace once, when the session ends.
    // A moved-from session holds no simulator and records nothing.
    if (obs_ && sim_ && obs_->tracing_enabled()) {
        std::ostringstream label;
        label << "stream(" << batches_.size() << " batches)";
        obs_->tracer().record_query(label.str(), *sim_);
    }
}

stream::BatchStats StreamSession::ingest(const stream::EdgeBatch& batch) {
    WallTimer timer;
    const double sim_before = sim_->time();
    auto stats = counter_->apply_batch(batch);
    if (!stats.error.ok()) {
        // Rejected atomically before any superstep: record it (the report's
        // batch log shows the typed error) but run no LCC flush and charge
        // nothing.
        batches_.push_back(stats);
        if (obs_ && obs_->metrics_enabled()) {
            obs_->registry().count("stream.batch_rejected");
        }
        return stats;
    }
    if (lcc_) { stats.lcc_seconds = lcc_->finish_batch(); }
    batches_.push_back(stats);
    if (obs_ && obs_->metrics_enabled()) {
        auto& registry = obs_->registry();
        registry.count("query.stream_ingest");
        registry.observe_latency("query.stream_ingest.latency_seconds",
                                 timer.elapsed_seconds());
        registry.observe_latency("query.stream_ingest.sim_seconds",
                                 sim_->time() - sim_before);
        registry.observe_size("stream.batch_edges", batch.events.size());
    }
    return stats;
}

std::uint64_t StreamSession::triangles() const noexcept { return counter_->triangles(); }

std::vector<std::uint64_t> StreamSession::delta() const {
    KATRIC_ASSERT_MSG(lcc_ != nullptr, "session does not maintain LCC");
    return lcc_->delta();
}

std::vector<double> StreamSession::lcc() const {
    KATRIC_ASSERT_MSG(lcc_ != nullptr, "session does not maintain LCC");
    return lcc_->lcc();
}

graph::CsrGraph StreamSession::materialize_global() const {
    return stream::materialize_global(*views_);
}

Report StreamSession::report() const {
    Report report;
    report.query = Query::kStream;
    report.algorithm = config_.algorithm;
    report.reused_preprocessing = initial_reused_;
    report.count.triangles = counter_->triangles();
    report.initial = initial_;
    report.batches = batches_;
    report.stream_seconds = sim_->time();
    report.phases = net::aggregate_phase_times(sim_->phases());
    accumulate_ops(report, *sim_);
    if (lcc_) {
        report.delta = lcc_->delta();
        report.lcc = lcc_->lcc();
    }
    return report;
}

}  // namespace katric
