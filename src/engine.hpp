#pragma once

#include <atomic>
#include <future>
#include <memory>
#include <optional>
#include <vector>

#include "config.hpp"
#include "core/approx.hpp"
#include "core/dist_lcc.hpp"
#include "core/enumerate.hpp"
#include "core/runner.hpp"
#include "graph/distributed_graph.hpp"
#include "obs/observability.hpp"
#include "report.hpp"
#include "stream/stream_runner.hpp"

namespace katric {

class Engine;

/// A streaming session promoted from an Engine's built state
/// (Engine::open_stream): every rank's DynamicDistGraph is copied from the
/// engine's preprocessed DistGraph view — its rows and exchanged ghost
/// degrees, no second partitioning pass and no read of the global graph —
/// and batches are then ingested incrementally on a dedicated simulated
/// machine.
class StreamSession {
public:
    StreamSession(StreamSession&&) = default;
    StreamSession& operator=(StreamSession&&) = default;
    StreamSession(const StreamSession&) = delete;
    StreamSession& operator=(const StreamSession&) = delete;

    /// Ingests one batch (delete/apply/insert supersteps, plus the Δ flush
    /// when the session maintains LCC); returns its stats (by value — the
    /// copy is a handful of counters and stays valid across later ingests).
    stream::BatchStats ingest(const stream::EdgeBatch& batch);

    [[nodiscard]] std::uint64_t triangles() const noexcept;
    [[nodiscard]] const core::CountResult& initial() const noexcept { return initial_; }
    [[nodiscard]] const std::vector<stream::BatchStats>& batches() const noexcept {
        return batches_;
    }

    /// Host-side per-vertex state (only when the session maintains LCC).
    [[nodiscard]] std::vector<std::uint64_t> delta() const;
    [[nodiscard]] std::vector<double> lcc() const;

    /// Host-side reassembly of the session's current global graph (the
    /// full-recount baseline in the streaming benches).
    [[nodiscard]] graph::CsrGraph materialize_global() const;

    /// The unified result surface: a kStream Report reflecting everything
    /// ingested so far. Callable between batches.
    [[nodiscard]] Report report() const;

    ~StreamSession();

private:
    friend class Engine;
    StreamSession(const std::vector<graph::DistGraph>& views, Config config,
                  core::CountResult initial,
                  std::vector<std::uint64_t> initial_delta, bool initial_reused,
                  std::shared_ptr<obs::Observability> obs);

    Config config_;
    /// Shared with (and outliving) the spawning Engine: ingest latency
    /// samples land in the registry, and the session's simulated timeline is
    /// appended to the trace when the session ends.
    std::shared_ptr<obs::Observability> obs_;
    core::CountResult initial_;
    /// The initial static pass skipped the preprocessing replay — propagated
    /// into report() so artifacts stay self-describing.
    bool initial_reused_ = false;
    // Heap-held so the counter's pointers into them survive session moves.
    std::unique_ptr<net::Simulator> sim_;
    std::unique_ptr<std::vector<stream::DynamicDistGraph>> views_;
    std::unique_ptr<stream::IncrementalCounter> counter_;
    std::unique_ptr<stream::IncrementalLcc> lcc_;
    std::vector<stream::BatchStats> batches_;
};

/// Per-query overrides on an Engine's configured defaults — the sweep
/// workload: one build, many variants. Unset fields inherit the engine's
/// Config. None of them touches the preprocessed views, which stay as the
/// constructor built them.
struct QueryOptions {
    std::optional<core::Algorithm> algorithm;
    /// approx_count only: override Config::amq.
    std::optional<core::AmqOptions> amq;
    /// Override Config::recovery for this query alone (what to do when the
    /// hardened layer detects an unrecoverable fault).
    std::optional<fault::RecoveryPolicy> recovery;
    /// Per-query deadline in host wall-clock seconds, checked cooperatively
    /// at superstep boundaries; overrides Config::deadline_seconds. An
    /// expired deadline surfaces as ServeError::kDeadline. 0 = none.
    std::optional<double> deadline_seconds;
    /// Borrowed cooperative-cancellation handle: cancel() aborts the query
    /// at the next superstep boundary (also ServeError::kDeadline). Must
    /// outlive the query; null = deadline-only cancellation.
    const fault::CancelToken* cancel = nullptr;
};

/// Engine::serve tuning. Zero-valued fields fall back to the engine's
/// Config (--serve-threads / --queue-depth), then to the built-in defaults
/// (4 workers, 64 queued requests).
struct ServeOptions {
    int threads = 0;
    std::size_t queue_depth = 0;
};

/// One submission to a ServeSession: which query to run, its per-query
/// overrides, and an admission priority (higher drains first; FIFO within a
/// priority class). Query::kStream cannot be served — a stream is a session
/// fed batch by batch, not one query; its future resolves to a
/// ServeError::kUnsupported report.
struct ServeRequest {
    Query query = Query::kCount;
    QueryOptions options;
    int priority = 0;
    /// Submit-to-completion deadline in host wall-clock seconds (0 = the
    /// engine's Config::deadline_seconds, which may itself be 0 = none).
    /// A request still queued past its deadline is load-shed — its future
    /// resolves to ServeError::kDeadline without running; one picked up in
    /// time runs with the remaining budget as its cooperative query
    /// deadline, cancelled at the next superstep boundary once it expires.
    double deadline_seconds = 0.0;
};

/// A concurrent query-serving session over one Engine's shared state
/// (Engine::serve): a fixed worker pool drains an admission queue of
/// submitted queries, each running on its own fresh simulated machine
/// against the engine's const views. Reports are bit-identical to the same
/// queries run sequentially on the engine.
///
/// Admission: the queue is bounded (ServeOptions::queue_depth). When it is
/// full, submit() completes the returned future *immediately* with a report
/// carrying ServeError::kRejected — the submitter is never blocked. After
/// drain() (or destruction begins), submissions resolve to
/// ServeError::kStopped.
///
/// Lifetime: the session borrows the engine; the engine must outlive it.
/// The engine is immutable after construction, so the workers share it with
/// no lock. drain() — idempotent, also run by the destructor — closes
/// admission, finishes everything already accepted, and joins the workers.
class ServeSession {
public:
    ServeSession(ServeSession&&) noexcept;
    ServeSession& operator=(ServeSession&&) noexcept;
    ServeSession(const ServeSession&) = delete;
    ServeSession& operator=(const ServeSession&) = delete;
    ~ServeSession();

    /// Submits one query for asynchronous execution. Always returns a valid
    /// future: fulfilled by a worker on success, or immediately with a
    /// typed-error report (kRejected / kStopped / kUnsupported) when the
    /// request is not admitted. Thread-safe.
    std::future<Report> submit(const ServeRequest& request);
    std::future<Report> submit(const QueryOptions& options) {
        ServeRequest request;
        request.options = options;
        return submit(request);
    }

    /// Closes admission, runs everything already accepted, joins the
    /// workers. Idempotent; called by the destructor. After it returns every
    /// previously returned future is ready.
    void drain();

    /// Monotone session counters plus submit-to-completion latency
    /// percentiles (host wall-clock seconds, sampled per completed query).
    /// The rejection-reason breakdown makes overload diagnosable: queue-full
    /// says raise --queue-depth or slow the clients, stopped says a client
    /// submitted into a draining session, deadline-shed says the queue wait
    /// alone already blew the latency budget.
    struct Stats {
        std::size_t submitted = 0;  ///< accepted into the queue
        std::size_t completed = 0;  ///< futures fulfilled by a worker
        std::size_t rejected = 0;   ///< kRejected + kStopped + kUnsupported
        std::size_t rejected_queue_full = 0;    ///< ServeError::kRejected
        std::size_t rejected_stopped = 0;       ///< ServeError::kStopped
        std::size_t rejected_unsupported = 0;   ///< ServeError::kUnsupported
        /// Admitted, but expired while still queued: load-shed by the worker
        /// without running (future resolves to ServeError::kDeadline). Not
        /// part of `rejected` — the request was accepted; counted neither in
        /// `completed`. Requests cancelled mid-run count as completed (their
        /// report carries the kDeadline error).
        std::size_t shed_deadline = 0;
        double latency_p50 = 0.0;
        double latency_p99 = 0.0;
        double latency_max = 0.0;
    };
    [[nodiscard]] Stats stats() const;

    [[nodiscard]] int threads() const noexcept;
    [[nodiscard]] std::size_t queue_depth() const noexcept;

private:
    friend class Engine;
    ServeSession(const Engine& engine, const ServeOptions& options);

    struct Impl;
    std::unique_ptr<Impl> impl_;
};

/// The library's session facade — build the expensive distributed state
/// once, run many queries against it.
///
/// Construction pays the whole pipeline head once: partitioning (uniform or
/// edge-balanced, or an injected custom Partition1D), every simulated PE's
/// DistGraph view of the input, and the preprocessing of Section IV-D —
/// ghost-degree exchange, orientation, hub bitmaps — run on a throwaway
/// machine that records its cost ledger (core::PreprocessCosts). The views
/// are read-only from then on.
///
///   katric::Engine engine(graph, katric::Config::preset("paper-cetric"));
///   auto count = engine.count();              // Report
///   auto lcc = engine.lcc();                  // same built state
///   auto stream = engine.open_stream();       // promote to dynamic views
///
/// Each query runs on a *fresh* simulated machine over the shared views and
/// replays the recorded ledger into it, so its report is bit-identical to a
/// one-shot run that preprocesses fresh views on its own machine before
/// counting (the paper's timing convention: loading excluded,
/// preprocessing included). The one opt-out:
/// Config::reuse_preprocessing without Config::charge_reused_preprocessing
/// skips the replay — counts and payloads stay exact, but op/time telemetry
/// omits the preprocessing and Report::reused_preprocessing says so.
///
/// The graph must outlive the engine (the views reference its partition
/// only; the graph itself is re-read when a query needs global degrees).
///
/// Thread safety: every method is const and the built state is immutable,
/// so queries (and open_stream) may run concurrently from several threads —
/// Engine::serve's worker pool, or direct calls — with no lock.
class Engine {
public:
    Engine(const graph::CsrGraph& graph, Config config);
    /// Injected-partition form: run on a caller-supplied 1-D partition (the
    /// load-balance ablation's cost-function splits) instead of the strategy
    /// named by Config::partition. The partition must cover the graph's
    /// vertices and have exactly Config::num_ranks ranks.
    Engine(const graph::CsrGraph& graph, Config config, graph::Partition1D partition);
    Engine(const Engine&) = delete;
    Engine& operator=(const Engine&) = delete;

    [[nodiscard]] const Config& config() const noexcept { return config_; }
    [[nodiscard]] const graph::CsrGraph& graph() const noexcept { return *graph_; }
    [[nodiscard]] const graph::Partition1D& partition() const noexcept {
        return partition_;
    }
    /// Every rank's preprocessed static view (ghost degrees exchanged,
    /// oriented), as the constructor built it.
    [[nodiscard]] const std::vector<graph::DistGraph>& views() const noexcept {
        return views_;
    }
    [[nodiscard]] std::size_t queries_run() const noexcept {
        return queries_.load(std::memory_order_relaxed);
    }

    /// The session's observability instance (Config::metrics /
    /// Config::trace_out); null when both are off. Benches read the metrics
    /// registry and kernel dispatch mix through this.
    [[nodiscard]] const std::shared_ptr<obs::Observability>& observability()
        const noexcept {
        return obs_;
    }
    /// Human-readable metrics snapshot (registry + kernel dispatch mix);
    /// empty when observability is off.
    [[nodiscard]] std::string metrics_summary() const;

    /// True when queries run on the hardened message layer (Config::harden
    /// or a non-empty Config::fault_spec).
    [[nodiscard]] bool hardening_enabled() const noexcept {
        return config_.harden || injector_.has_value();
    }

    // --- queries (each runs on a fresh simulated machine) ----------------
    /// Exact triangle count with the configured algorithm, or per-query
    /// overrides (the sweep workload: one build, k algorithms).
    Report count() const { return count(nullptr, QueryOptions{}); }
    Report count(core::Algorithm algorithm) const {
        QueryOptions query;
        query.algorithm = algorithm;
        return count(nullptr, query);
    }
    Report count(const QueryOptions& query) const { return count(nullptr, query); }
    Report count(const core::TriangleSink* sink, const QueryOptions& query = {}) const;

    /// Distributed local clustering coefficients (Report::delta / ::lcc).
    Report lcc(const QueryOptions& query = {}) const;
    Report lcc(core::Algorithm algorithm) const {
        QueryOptions query;
        query.algorithm = algorithm;
        return lcc(query);
    }

    /// Exactly-once triangle enumeration. Without a sink the canonical
    /// sorted list lands in Report::triangles; with a sink every find is
    /// forwarded to it instead (streaming enumeration — nothing collected).
    Report enumerate() const { return enumerate(nullptr, QueryOptions{}); }
    Report enumerate(const QueryOptions& query) const {
        return enumerate(nullptr, query);
    }
    Report enumerate(const core::TriangleSink& sink,
                     const QueryOptions& query = {}) const {
        return enumerate(&sink, query);
    }

    /// Approximate count via the CETRIC-AMQ Bloom-filter global phase,
    /// configured by Config::amq (or per-query overrides).
    Report approx_count(const QueryOptions& query = {}) const {
        return approx(query, /*arm=*/true);
    }
    Report approx_count(const core::AmqOptions& amq) const {
        QueryOptions query;
        query.amq = amq;
        return approx_count(query);
    }

    /// Promotes the built state into a streaming session: the initial count
    /// (and, with Config::maintain_lcc, the initial Δ vector) is computed on
    /// the shared static views, then each rank's dynamic view is copied from
    /// its preprocessed static view (DynamicDistGraph::from_view: local rows
    /// plus the exchanged ghost degrees). No second partitioning pass, no
    /// read of the global graph, and the engine's views stay untouched.
    [[nodiscard]] StreamSession open_stream() const;

    /// Convenience: open_stream + ingest every batch (observer fires after
    /// each) + the final kStream Report.
    Report stream(const std::vector<stream::EdgeBatch>& batches,
                  const stream::BatchObserver& observer = {}) const;

    /// Opens a concurrent serving session over this engine's built state: a
    /// worker pool drains submitted queries against the shared views, each
    /// on its own fresh simulated machine (see ServeSession). The engine
    /// must outlive the session.
    [[nodiscard]] ServeSession serve(const ServeOptions& options = {}) const;

private:
    Report enumerate(const core::TriangleSink* sink, const QueryOptions& query) const;
    /// approx_count; `arm` gates the hardened layer so the kDegrade fallback
    /// can run approximate counting with injection off (retrying the same
    /// faulty machine would be pointless).
    Report approx(const QueryOptions& query, bool arm) const;

    /// The one query path: times the query, wires a query-local kernel-stats
    /// sink into `spec`, arms a fresh simulator (when `arm`), runs
    /// `body(report, sim, spec, preprocess)` on it, turns OOM, network
    /// faults and cancellation into typed report fields, and finalizes.
    template <typename Body>
    Report run_query(Query kind, core::RunSpec spec, const QueryOptions& query, bool arm,
                     const Body& body) const;
    /// Ops telemetry, per-phase breakdown, typed-error propagation, and
    /// observability recording shared by every query. `wall_seconds` is the
    /// query's host-side latency (the serving p50/p99 substrate);
    /// `kernel_stats` the query-local dispatch mix to merge (null = none).
    void finalize(Report& report, const net::Simulator& sim, double wall_seconds,
                  const obs::KernelStats* kernel_stats) const;
    /// Config::run_spec with the query's overrides applied.
    [[nodiscard]] core::RunSpec query_spec(const QueryOptions& query) const;
    /// How every query treats the preprocessing the constructor built:
    /// replay the recorded ledger (kCharge), or skip it (kSkip) when the
    /// config reuses preprocessing without the re-charge.
    [[nodiscard]] core::Preprocess preprocess() const;

    /// Per-query hardening context: the fault counters and the query's
    /// cancel token (deadline-armed, chained onto a caller token). Lives on
    /// the query's stack; the simulator borrows it for the run.
    struct QueryGuard {
        fault::FaultStats stats;
        fault::CancelToken token;
        bool armed = false;
    };
    /// Arms the hardened message layer on a fresh simulator when the config
    /// (harden / fault_spec) or the query (deadline, cancel) asks for it.
    void arm_simulator(net::Simulator& sim, const QueryOptions& query,
                       QueryGuard& guard) const;
    /// Folds a finished (or failed) hardened run into the report and the
    /// metrics registry: hardened/degraded flags, fault counters.
    void record_faults(Report& report, const QueryGuard& guard) const;

    const graph::CsrGraph* graph_;
    const Config config_;
    const graph::Partition1D partition_;
    const std::shared_ptr<obs::Observability> obs_;
    /// The session's deterministic fault oracle, parsed once from
    /// Config::fault_spec; disengaged = no injection (hardening may still be
    /// on via Config::harden).
    const std::optional<fault::FaultInjector> injector_;
    /// The cost ledger of the constructor's preprocessing pass, filled while
    /// views_ is built and replayed by every charged query.
    core::PreprocessCosts costs_;
    /// Every rank's preprocessed view, built once in the initializer list.
    const std::vector<graph::DistGraph> views_;
    /// The one counter queries bump — telemetry, not state a query reads.
    mutable std::atomic<std::size_t> queries_{0};
};

}  // namespace katric
