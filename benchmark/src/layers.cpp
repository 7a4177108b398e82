// Layer replays for the traced run: each layer's public calls timed from
// outside on the workload's own graph and configuration, in the order a
// warm Engine runs them (partition → distribute → preprocess → dispatch),
// plus the sequential kernel baseline and a replay of each op's message
// shape through the simulator, plain and hardened.

#include <algorithm>
#include <array>
#include <functional>

#include "core/runner.hpp"
#include "graph/distributed_graph.hpp"
#include "net/metrics.hpp"
#include "net/simulator.hpp"
#include "obs/kernel_stats.hpp"
#include "seq/edge_iterator.hpp"
#include "workloads.hpp"

namespace katric::benchmark {

namespace {

/// a / b, or 0 when b is 0.
double ratio(double a, double b) { return b != 0.0 ? a / b : 0.0; }

/// Arms the hardened message layer the way Engine does for Config::harden
/// (framing and checksums, no injector, the configured retry budget).
void harden(net::Simulator& sim, const Config& config, fault::FaultStats& stats) {
    net::HardenOptions options;
    options.stats = &stats;
    options.max_retries = config.max_retries;
    sim.harden(options);
}

/// Host seconds of one superstep in which every rank sends the messages and
/// words one op made it send (from its RankMetrics), spread round-robin over
/// the other ranks, to a handler that does nothing: the simulator's own
/// per-message and per-word cost, on a pattern computed from the op.
double replay_message_shape(const std::vector<net::RankMetrics>& shape,
                            const Config& config, bool hardened) {
    net::Simulator sim(config.num_ranks, config.network);
    fault::FaultStats stats;
    if (hardened) { harden(sim, config, stats); }
    const auto p = static_cast<std::uint64_t>(config.num_ranks);
    const auto start = [&](net::RankHandle& self) {
        const auto& sent = shape[self.rank()];
        if (p < 2 || sent.messages_sent == 0) { return; }
        const auto per_message = sent.words_sent / sent.messages_sent;
        const auto remainder = sent.words_sent % sent.messages_sent;
        for (std::uint64_t k = 0; k < sent.messages_sent; ++k) {
            const auto dest = static_cast<net::Rank>((self.rank() + 1 + k % (p - 1)) % p);
            self.send(dest, net::WordVec(per_message + (k < remainder ? 1 : 0)));
        }
    };
    const auto ignore = [](net::RankHandle&, net::Rank, int,
                           std::span<const std::uint64_t>) {};
    return timed([&] { sim.run_phase("replay", start, ignore); });
}

/// Exact per-op counters of one dispatch per algorithm, averaged.
struct ExactCounters {
    double local = 0.0;
    double contraction = 0.0;
    double global = 0.0;
    double reduce = 0.0;
    double local_frac = 0.0;
    double ops_max = 0.0;
    double ops_total = 0.0;
    double supersteps = 0.0;
    double msgs = 0.0;
    double words = 0.0;
    double global_words = 0.0;
    /// Per algorithm: each rank's counters, the shape the net replay sends.
    std::vector<std::vector<net::RankMetrics>> shapes;
};

void measure_layers(const LayerInput& input, Result& result, SpanRecorder& spans) {
    const SpanRecorder::Scope root(spans, "layer replays");
    const auto& config = input.config;
    const auto reps = input.repetitions;
    const auto per_op = 1.0 / static_cast<double>(input.algorithms.size());
    input.setup->emit(result);

    const auto& views = input.setup->views();
    core::Preprocess charge;
    charge.mode = core::Preprocess::Mode::kCharge;
    charge.costs = &input.setup->costs();
    const auto dispatch = [&](net::Simulator& sim, core::Algorithm algorithm) {
        auto spec = config.run_spec();
        spec.algorithm = algorithm;
        return core::dispatch_algorithm(sim, views, spec, nullptr, charge);
    };

    // core + net counters: one untimed dispatch per algorithm, phase details on.
    ExactCounters exact;
    for (const auto algorithm : input.algorithms) {
        net::Simulator sim(config.num_ranks, config.network);
        sim.record_phase_details(true);
        const auto counted = dispatch(sim, algorithm);
        result.expect(counted.triangles == input.oracle_triangles,
                      "dispatch_algorithm(" + core::algorithm_name(algorithm)
                          + ") on the benchmark's views miscounted");
        exact.local += counted.local_time;
        exact.contraction += counted.contraction_time;
        exact.global += counted.global_time;
        exact.reduce += counted.reduce_time;
        exact.local_frac += ratio(static_cast<double>(counted.local_phase_triangles),
                                  static_cast<double>(counted.triangles));
        std::uint64_t max_ops = 0;
        for (const auto& metrics : sim.rank_metrics()) {
            max_ops = std::max(max_ops, metrics.compute_ops);
            exact.ops_total += static_cast<double>(metrics.compute_ops);
        }
        exact.ops_max += static_cast<double>(max_ops);
        exact.supersteps += static_cast<double>(sim.phases().size());
        exact.msgs += static_cast<double>(counted.total_messages_sent);
        exact.words += static_cast<double>(counted.total_words_sent);
        for (const auto& phase : sim.phases()) {
            if (!net::phase_name_matches(phase.name, "global*")) { continue; }
            for (const auto& delta : phase.rank_delta) {
                exact.global_words += static_cast<double>(delta.words_sent);
            }
        }
        exact.shapes.emplace_back(sim.rank_metrics().begin(), sim.rank_metrics().end());
    }
    result.add("core.local_sim_s", exact.local * per_op, "s");
    result.add("core.contraction_sim_s", exact.contraction * per_op, "s");
    result.add("core.global_sim_s", exact.global * per_op, "s");
    result.add("core.reduce_sim_s", exact.reduce * per_op, "s");
    result.add("core.local_triangle_frac", exact.local_frac * per_op, "frac");
    result.add("core.compute_ops_max", exact.ops_max * per_op, "ops");
    result.add("core.compute_ops_total", exact.ops_total * per_op, "ops");

    // Paired host timings: Engine::count and the dispatch underneath it on a
    // plain and on a hardened machine, in an order that rotates every
    // repetition so that none of the three always runs on warmer caches.
    Summary count_s;
    Summary plain_s;
    Summary hardened_s;
    double frames = 0.0;
    std::uint64_t retransmits = 0;
    for (std::size_t rep = 0; rep < reps; ++rep) {
        for (const auto algorithm : input.algorithms) {
            QueryOptions query;
            query.algorithm = algorithm;
            Report report;
            core::CountResult plain;
            core::CountResult hardened;
            fault::FaultStats stats;
            const std::array<std::function<void()>, 3> calls = {
                [&] {
                    spans.begin("engine.count");
                    count_s.add(timed([&] { report = input.engine->count(query); }));
                    spans.end();
                },
                [&] {
                    net::Simulator sim(config.num_ranks, config.network);
                    spans.begin("core.dispatch");
                    plain_s.add(timed([&] { plain = dispatch(sim, algorithm); }));
                    spans.end();
                },
                [&] {
                    net::Simulator sim(config.num_ranks, config.network);
                    harden(sim, config, stats);
                    spans.begin("core.dispatch (hardened)");
                    hardened_s.add(timed([&] { hardened = dispatch(sim, algorithm); }));
                    spans.end();
                }};
            for (std::size_t k = 0; k < calls.size(); ++k) {
                calls[(rep + k) % calls.size()]();
            }
            frames += static_cast<double>(stats.frames_sent);
            retransmits += stats.retransmits;

            // The engine arms its machine only when the config hardens.
            const auto& engine_like = config.harden ? hardened : plain;
            const auto& reported = report.count;
            result.expect(report.ok() && engine_like.triangles == reported.triangles
                              && engine_like.total_time == reported.total_time
                              && engine_like.max_words_sent == reported.max_words_sent,
                          "dispatch_algorithm(" + core::algorithm_name(algorithm)
                              + ") on the benchmark's views differs from Engine::count");
            result.expect(hardened.triangles == input.oracle_triangles,
                          "hardened dispatch miscounted");
        }
    }
    const double dispatch_s = (config.harden ? hardened_s : plain_s).median();
    result.add("core.dispatch_s", dispatch_s, "s");
    result.add("engine.facade_s", count_s.median() - dispatch_s, "s");

    // seq: the HPC baseline, the plain single-threaded sequential kernel.
    Summary kernel_s;
    seq::SeqCountResult sequential;
    for (std::size_t rep = 0; rep < reps; ++rep) {
        spans.begin("seq.count_edge_iterator");
        kernel_s.add(timed([&] {
            sequential = seq::count_edge_iterator(*input.graph, config.options.intersect);
        }));
        spans.end();
    }
    result.expect(sequential.triangles == input.oracle_triangles,
                  "count_edge_iterator with the workload's kernel miscounted");
    const auto kernel_ops = static_cast<double>(sequential.ops);
    result.add("seq.kernel_s", kernel_s.median(), "s");
    result.add("seq.kernel_ops", kernel_ops, "ops");
    result.add("seq.ns_per_op", ratio(kernel_s.median(), kernel_ops) * 1e9, "ns");

    // net: the message-shape replay, plain and hardened.
    Summary replay_s;
    Summary hardened_replay_s;
    for (std::size_t rep = 0; rep < reps; ++rep) {
        double plain = 0.0;
        double framed = 0.0;
        for (const auto& shape : exact.shapes) {
            spans.begin("net.replay");
            plain += replay_message_shape(shape, config, false);
            spans.end();
            spans.begin("net.replay (hardened)");
            framed += replay_message_shape(shape, config, true);
            spans.end();
        }
        replay_s.add(plain * per_op);
        hardened_replay_s.add(framed * per_op);
    }
    const double msgs = exact.msgs * per_op;
    const double words = exact.words * per_op;
    result.add("net.supersteps", exact.supersteps * per_op, "count");
    result.add("net.msgs_total", msgs, "msgs");
    result.add("net.words_total", words, "words");
    result.add("net.global_words", exact.global_words * per_op, "words");
    result.add("net.replay_s", replay_s.median(), "s");
    result.add("net.ns_per_msg", ratio(replay_s.median(), msgs) * 1e9, "ns");
    result.add("net.ns_per_word", ratio(replay_s.median(), words) * 1e9, "ns");

    // fault: what framing costs with nothing injected.
    result.expect(retransmits == 0, "the hardened layer retransmitted with no faults");
    const auto dispatches = static_cast<double>(reps * input.algorithms.size());
    result.add("fault.frames_sent", frames / dispatches, "count");
    result.add("fault.retransmits", static_cast<double>(retransmits), "count");
    result.add("fault.replay_s", hardened_replay_s.median(), "s");
    result.add("fault.harden_overhead_frac",
               relative_overhead(replay_s, hardened_replay_s), "frac");
    result.add("fault.dispatch_overhead_frac", relative_overhead(plain_s, hardened_s),
               "frac");
}

void emit_kernel_mix(Result& result, const Engine& traced) {
    const auto& stats = traced.observability()->kernel_stats();
    const auto queries =
        static_cast<double>(std::max<std::size_t>(traced.queries_run(), 1));
    for (std::size_t i = 0; i < obs::kNumKernelChoices; ++i) {
        const auto choice = static_cast<obs::KernelChoice>(i);
        result.add("seq.calls." + obs::kernel_choice_name(choice),
                   static_cast<double>(stats.total(choice)) / queries, "calls");
    }
    result.add("seq.hub_hit_rate", stats.hub_hit_rate(), "frac");
}

}  // namespace

void OwnedSetup::build(SpanRecorder& spans) {
    const SpanRecorder::Scope scope(spans, "engine stages");
    const auto spec = config_.run_spec();
    graph::Partition1D partition;
    spans.begin("graph.partition");
    partition_s_.add(timed([&] { partition = core::make_partition(*graph_, spec); }));
    spans.end();
    spans.begin("graph.distribute");
    distribute_s_.add(timed([&] { views_ = graph::distribute(*graph_, partition); }));
    spans.end();
    net::Simulator sim(spec.num_ranks, spec.network);
    costs_ = {};
    spans.begin("core.preprocess");
    preprocess_s_.add(
        timed([&] { core::run_preprocessing(sim, views_, config_.options, &costs_); }));
    spans.end();
    preprocess_sim_s_ = sim.time();
}

void OwnedSetup::emit(Result& result) const {
    result.add("graph.partition_s", partition_s_.median(), "s");
    result.add("graph.distribute_s", distribute_s_.median(), "s");
    result.add("core.preprocess_s", preprocess_s_.median(), "s");
    result.add("core.preprocess_sim_s", preprocess_sim_s_, "s");
}

void finish_traced_run(const OpLog& untraced, const OpLog& traced_ops,
                       const Engine& traced, const LayerInput& layers, Result& result,
                       SpanRecorder& spans) {
    result.add("obs.trace_overhead_frac", relative_overhead(untraced, traced_ops),
               "frac");
    emit_kernel_mix(result, traced);
    measure_layers(layers, result, spans);
    auto all = untraced;
    all.merge(traced_ops);
    // Traced runs report plain host seconds: no probe.
    result.set_timed(all.ops(), all.window_seconds, 0.0);
}

}  // namespace katric::benchmark
