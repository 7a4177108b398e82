// stream-churn: churn batches ingested through a streaming session that
// maintains Δ/LCC. The batches form a cycle — forward churn batches, then
// their exact inverses in reverse order — so the graph returns to its base
// after every cycle. Its size and structure stay put however long a run
// lasts, every position of the cycle does the same work on every commit,
// and the count and Δ at the cycle's midpoint and end are known.

#include <algorithm>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "net/metrics.hpp"
#include "stream/edge_stream.hpp"
#include "stream/incremental.hpp"
#include "stream/incremental_lcc.hpp"
#include "stream/stream_runner.hpp"
#include "workloads.hpp"

namespace katric::benchmark {

namespace {

/// Deletions balance insertions, so the edge count stays stable.
constexpr double kDeleteFraction = 0.5;
/// Forward batches per cycle (each followed, in reverse, by its inverse).
constexpr std::size_t kForwardBatches = 8;
/// Midpoint/end checkpoints compared against a full sequential recount of
/// materialize_global(); later ones compare against the recorded state.
constexpr std::size_t kRecountCheckpoints = 4;
/// Batches of the stream-layer probe in the other workloads' traced runs.
constexpr std::size_t kProbeBatches = 4;

std::size_t batch_events(const Options& options) {
    return options.smoke ? 256 : 4096;
}

std::uint64_t edge_key(graph::VertexId u, graph::VertexId v) {
    return (std::min(u, v) << 32) | std::max(u, v);
}

/// Forward churn batches plus their inverses: the inverse of a batch deletes
/// what it effectively inserted and re-inserts what it effectively deleted
/// (the counter's fold rule: last event per edge wins, no-ops vanish).
std::vector<stream::EdgeBatch> make_cycle(const graph::CsrGraph& base,
                                          std::size_t forward_batches, std::size_t events,
                                          std::uint64_t seed) {
    auto cycle =
        stream::make_churn_stream(base, forward_batches * events, kDeleteFraction, seed)
            .batches_of(events);
    std::unordered_set<std::uint64_t> edges;
    for (graph::VertexId u = 0; u < base.num_vertices(); ++u) {
        for (const auto v : base.neighbors(u)) {
            if (u < v) { edges.insert(edge_key(u, v)); }
        }
    }
    std::vector<stream::EdgeBatch> inverses;
    for (const auto& batch : cycle) {
        std::unordered_map<std::uint64_t, bool> present_after;
        std::vector<std::uint64_t> touched;
        for (const auto& event : batch.events) {
            if (event.u == event.v) { continue; }
            const auto key = edge_key(event.u, event.v);
            if (present_after.emplace(key, false).second) { touched.push_back(key); }
            present_after[key] = event.kind == stream::EventKind::kInsert;
        }
        stream::EdgeBatch inverse;
        for (const auto key : touched) {
            const bool before = edges.contains(key);
            const bool after = present_after[key];
            if (before == after) { continue; }
            if (after) {
                edges.insert(key);
            } else {
                edges.erase(key);
            }
            const auto time = static_cast<double>(inverse.events.size());
            const auto undo =
                after ? stream::EventKind::kDelete : stream::EventKind::kInsert;
            inverse.events.push_back({time, key >> 32, key & 0xffffffffULL, undo});
        }
        inverse.end_time = inverse.events.empty() ? 0.0 : inverse.events.back().time;
        inverses.push_back(std::move(inverse));
    }
    cycle.insert(cycle.end(), std::make_move_iterator(inverses.rbegin()),
                 std::make_move_iterator(inverses.rend()));
    return cycle;
}

/// Feeds the cycle to a session one batch per step and checks the count and
/// Δ at the cycle's midpoint and end, outside the timed ingest.
class ChurnFeeder {
public:
    ChurnFeeder(StreamSession& session, const std::vector<stream::EdgeBatch>& cycle,
                const Oracle& base)
        : session_(&session), cycle_(&cycle), base_(&base) {}

    /// Ingests the next batch; returns its host seconds.
    double step(Result& result, SpanRecorder& spans) {
        const auto pos = steps_ % cycle_->size();
        stream::BatchStats stats;
        spans.begin("ingest");
        const double seconds = timed([&] { stats = session_->ingest((*cycle_)[pos]); });
        spans.end();
        ++steps_;
        result.op(stats.error.ok(),
                  "batch " + std::to_string(pos) + " rejected: " + stats.error.message);
        if (first_cycle_.size() < cycle_->size()) { first_cycle_.push_back(stats); }
        if (pos + 1 == cycle_->size() / 2 || pos + 1 == cycle_->size()) {
            const WallTimer timer;
            const SpanRecorder::Scope scope(spans, "checkpoint");
            check(pos + 1 == cycle_->size(), result);
            check_seconds_ += timer.elapsed_seconds();
        }
        return seconds;
    }

    /// Cycle position of the next batch.
    [[nodiscard]] std::size_t position() const noexcept {
        return steps_ % cycle_->size();
    }
    [[nodiscard]] double check_seconds() const noexcept { return check_seconds_; }
    [[nodiscard]] const std::vector<stream::BatchStats>& first_cycle() const noexcept {
        return first_cycle_;
    }

private:
    void check(bool cycle_end, Result& result) {
        const Oracle* expected = cycle_end ? base_ : (midpoint_ ? &*midpoint_ : nullptr);
        if (recounts_ < kRecountCheckpoints || expected == nullptr) {
            ++recounts_;
            auto recount = make_oracle(session_->materialize_global(), true);
            if (expected != nullptr) {
                result.expect(recount.triangles == expected->triangles
                                  && recount.delta == expected->delta,
                              "the materialized graph does not repeat with the cycle");
            }
            if (!cycle_end && !midpoint_) { midpoint_ = std::move(recount); }
            expected = cycle_end ? base_ : &*midpoint_;
        }
        const auto where = std::string(cycle_end ? "cycle end" : "cycle midpoint");
        result.expect(session_->triangles() == expected->triangles,
                      "stream count at " + where + " is "
                          + std::to_string(session_->triangles()) + ", a recount gives "
                          + std::to_string(expected->triangles));
        result.expect(session_->delta() == expected->delta,
                      "stream Δ at " + where + " differs from seq::per_vertex_triangles");
    }

    StreamSession* session_;
    const std::vector<stream::EdgeBatch>* cycle_;
    const Oracle* base_;
    std::optional<Oracle> midpoint_;
    std::vector<stream::BatchStats> first_cycle_;
    std::size_t steps_ = 0;
    std::size_t recounts_ = 0;
    double check_seconds_ = 0.0;
};

/// Steps the feeder for `seconds` of ingest time (checkpoints excluded) and
/// at least `min_steps` batches.
OpLog feed(ChurnFeeder& feeder, double seconds, std::size_t min_steps, Result& result,
            SpanRecorder& spans) {
    OpLog log;
    const WallTimer window;
    const double checks_before = feeder.check_seconds();
    const auto elapsed = [&] {
        return window.elapsed_seconds() - (feeder.check_seconds() - checks_before);
    };
    while (log.ops() < min_steps || elapsed() < seconds) {
        const auto position = feeder.position();
        const double latency = feeder.step(result, spans);
        log.add(latency, position, elapsed());
    }
    log.window_seconds = elapsed();
    return log;
}

/// Per-PE simulated cost of the first cycle. A StreamSession keeps its
/// machine to itself, so the cycle is replayed on a machine built exactly as
/// the session builds its own (same partition, options and initial Δ); every
/// batch's simulated seconds and totals must match the session's.
SimCost replay_cycle(const graph::CsrGraph& base, const Config& config,
                     const graph::Partition1D& partition, const Oracle& oracle,
                     const std::vector<stream::EdgeBatch>& cycle,
                     const std::vector<stream::BatchStats>& session_stats,
                     Result& result) {
    net::Simulator sim(config.num_ranks, config.network);
    auto views = stream::distribute_dynamic(base, partition);
    stream::IncrementalCounter counter(sim, views, config.options, config.stream_indirect,
                                       oracle.triangles);
    stream::IncrementalLcc lcc(sim, views, config.options, config.stream_indirect,
                               oracle.delta);
    lcc.attach(counter);
    SimCost cost;
    for (std::size_t i = 0; i < session_stats.size(); ++i) {
        const std::vector<net::RankMetrics> before(sim.rank_metrics().begin(),
                                                   sim.rank_metrics().end());
        auto stats = counter.apply_batch(cycle[i]);
        stats.lcc_seconds = lcc.finish_batch();
        const auto& expected = session_stats[i];
        result.expect(stats.seconds == expected.seconds
                          && stats.lcc_seconds == expected.lcc_seconds
                          && stats.messages_sent == expected.messages_sent
                          && stats.words_sent == expected.words_sent
                          && stats.triangles == expected.triangles,
                      "per-PE replay of batch " + std::to_string(i)
                          + " differs from the session");
        std::uint64_t max_words = 0;
        std::uint64_t max_msgs = 0;
        for (std::size_t r = 0; r < before.size(); ++r) {
            const auto& after = sim.rank_metrics()[r];
            max_words = std::max(max_words, after.words_sent - before[r].words_sent);
            max_msgs = std::max(max_msgs, after.messages_sent - before[r].messages_sent);
        }
        cost.time_s += stats.seconds + stats.lcc_seconds;
        cost.max_words_pe += static_cast<double>(max_words);
        cost.max_msgs_pe += static_cast<double>(max_msgs);
    }
    const auto n = static_cast<double>(session_stats.size());
    cost.time_s /= n;
    cost.max_words_pe /= n;
    cost.max_msgs_pe /= n;
    cost.peak_buffer_words =
        static_cast<double>(net::max_peak_buffered(sim.rank_metrics()));
    return cost;
}

void emit_stream_layer(Result& result, const std::vector<stream::BatchStats>& batches) {
    double seconds = 0.0;
    double lcc_seconds = 0.0;
    double msgs = 0.0;
    double words = 0.0;
    double effective = 0.0;
    double events = 0.0;
    for (const auto& stats : batches) {
        seconds += stats.seconds;
        lcc_seconds += stats.lcc_seconds;
        msgs += static_cast<double>(stats.messages_sent);
        words += static_cast<double>(stats.words_sent);
        effective += static_cast<double>(stats.net_inserts + stats.net_deletes);
        events += static_cast<double>(stats.events);
    }
    const auto n = static_cast<double>(std::max<std::size_t>(batches.size(), 1));
    result.add("stream.sim_batch_s", seconds / n, "s");
    result.add("stream.lcc_sim_s", lcc_seconds / n, "s");
    result.add("stream.msgs_per_batch", msgs / n, "msgs");
    result.add("stream.words_per_batch", words / n, "words");
    result.add("stream.effective_frac", events > 0.0 ? effective / events : 0.0, "frac");
}

}  // namespace

void run_stream_workload(const Options& options, Result& result, SpanRecorder& spans) {
    const SpanRecorder::Scope root(spans, "workload " + options.workload);
    graph::CsrGraph base;
    std::vector<stream::EdgeBatch> cycle;
    {
        const SpanRecorder::Scope scope(spans, "input");
        base = shuffled_rmat(options.smoke ? 10 : 15, options);
        cycle = make_cycle(base, options.smoke ? 2 : kForwardBatches,
                           batch_events(options), kBaseSeed);
    }
    Oracle oracle;
    {
        const SpanRecorder::Scope scope(spans, "oracle");
        oracle = make_oracle(base, true);
    }
    auto config = warm_charged(Config::preset("streaming-lcc"));
    config.num_ranks = 16;

    std::optional<Engine> engine;
    std::optional<StreamSession> session;
    OwnedSetup owned(base, config);
    {
        // As in the query workloads: an untraced run times its constructions
        // during the timed phase.
        const SpanRecorder::Scope scope(spans, "setup");
        for (int i = 0; i < (options.trace ? kSetupRepetitions : 1); ++i) {
            session.reset();
            engine.reset();
            spans.begin("engine.construct + open_stream");
            engine.emplace(base, config);
            session.emplace(engine->open_stream());
            spans.end();
            if (options.trace) { owned.build(spans); }
        }
    }
    result.expect(session->initial().triangles == oracle.triangles,
                  "initial stream count differs from the sequential kernel");
    result.expect(session->delta() == oracle.delta,
                  "initial stream Δ differs from seq::per_vertex_triangles");

    ChurnFeeder feeder(*session, cycle, oracle);
    if (!options.trace) {
        const auto min_steps =
            options.smoke ? cycle.size() : std::max(cycle.size(), kMinOps);
        const auto segment = [&](double seconds, std::size_t segment_min_steps) {
            return feed(feeder, seconds, segment_min_steps, result, spans);
        };
        const auto construct = [&] {
            std::optional<Engine> spare_engine;
            std::optional<StreamSession> spare_session;
            return timed([&] {
                spare_engine.emplace(base, config);
                spare_session.emplace(spare_engine->open_stream());
            });
        };
        HostProbe probe;
        const auto phase =
            run_timed_phase(options.seconds, min_steps, probe, segment, construct);
        SimCost sim;
        {
            const SpanRecorder::Scope scope(spans, "per-PE replay");
            sim = replay_cycle(base, config, engine->partition(), oracle, cycle,
                               feeder.first_cycle(), result);
        }
        emit_end_to_end(result, phase, sim);
        return;
    }

    // Traced run. The serve-layer probe goes first, so the traced engine's
    // registry holds nothing else when it is read; the traced session's
    // initial count comes after.
    std::optional<Engine> traced;
    {
        const SpanRecorder::Scope scope(spans, "setup (traced engine)");
        traced.emplace(base, with_tracing(config, options));
    }
    std::optional<References> refs;
    {
        const SpanRecorder::Scope scope(spans, "references");
        refs.emplace(*engine, std::vector<ServeRequest>{ServeRequest{}}, oracle, result);
    }
    {
        const SpanRecorder::Scope scope(spans, "serve probe");
        std::size_t cursor = 0;
        const auto served =
            serve_closed_loop(*traced, *refs, cursor, 0.0,
                              options.smoke ? 4 : kServeProbeRequests, result, spans);
        emit_serve_layer(result, *traced, served);
    }
    std::optional<StreamSession> traced_session;
    {
        const SpanRecorder::Scope scope(spans, "open_stream (traced)");
        traced_session.emplace(traced->open_stream());
    }
    ChurnFeeder traced_feeder(*traced_session, cycle, oracle);
    OpLog plain_log;
    OpLog traced_log;
    for (int slice = 0; slice < kTraceSlices; ++slice) {
        const bool use_traced = slice % 2 == 1;
        const SpanRecorder::Scope scope(spans,
                                        use_traced ? "ops (traced)" : "ops (untraced)");
        // Each side's first slice completes a whole cycle: the stream-layer
        // metrics are taken over it.
        const auto min_steps = slice < 2 ? cycle.size() : 1;
        (use_traced ? traced_log : plain_log)
            .merge(feed(use_traced ? traced_feeder : feeder,
                         options.seconds / kTraceSlices, min_steps, result, spans));
    }
    emit_stream_layer(result, feeder.first_cycle());

    LayerInput layers;
    layers.graph = &base;
    layers.config = config;
    layers.algorithms = {config.algorithm};
    layers.oracle_triangles = oracle.triangles;
    layers.engine = &*engine;
    layers.setup = &owned;
    layers.repetitions = options.smoke ? 2 : 5;
    finish_traced_run(plain_log, traced_log, *traced, layers, result, spans);
}

void probe_stream_layer(const graph::CsrGraph& graph, const Config& config,
                        const Options& options, Result& result, SpanRecorder& spans) {
    const SpanRecorder::Scope scope(spans, "stream probe");
    auto probe_config = config;
    probe_config.maintain_lcc = true;
    const auto events = batch_events(options);
    const auto batches =
        stream::make_churn_stream(graph, kProbeBatches * events, kDeleteFraction, kBaseSeed)
            .batches_of(events);
    Engine engine(graph, probe_config);
    auto session = engine.open_stream();
    std::vector<stream::BatchStats> stats;
    for (const auto& batch : batches) {
        spans.begin("ingest");
        stats.push_back(session.ingest(batch));
        spans.end();
        result.op(stats.back().error.ok(), "stream probe batch rejected");
    }
    const auto recount = make_oracle(session.materialize_global(), true);
    result.expect(
        session.triangles() == recount.triangles && session.delta() == recount.delta,
        "stream probe diverged from a sequential recount");
    emit_stream_layer(result, stats);
}

}  // namespace katric::benchmark
