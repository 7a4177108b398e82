// Engine amortization bench: the facade's reason to exist, measured. A
// k-algorithm comparison sweep (the fig5–fig8 workload) runs two ways:
//
//   one-shot — the core layer alone, k times: fresh partition + per-rank
//              views, a fresh machine, preprocessing built and charged
//              inside every run;
//   engine   — one Engine: partition, views and preprocessing built once at
//              construction, then k queries that replay the recorded
//              preprocessing ledger.
//
// A second section measures the monitoring steady state: one long-lived
// engine that skips the replay (Config::reuse_preprocessing without
// charge_reused_preprocessing, the warm-monitor shape) answering rounds of
// family-algorithm queries (DITRIC, DITRIC2, CETRIC, CETRIC2 — the
// production sink-capable algorithms), against one-shot runs per query. The
// engine build is paid once at start and is not part of any round. A third
// runs count + LCC + enumerate + approx on one engine.
//
// Doubles as a CI equivalence gate: every engine report must be
// bit-identical (count, simulated time, volume, messages) to its one-shot
// twin, every skipping-engine count must match, and the mixed workload's
// payloads must match their one-shot twins — or the bench exits non-zero.
// Wall clocks are reported, never gated. Snapshot: bench/BENCH_engine.json.

#include <cmath>
#include <iostream>

#include "bench_common.hpp"
#include "gen/rgg2d.hpp"
#include "gen/rmat.hpp"
#include "obs/trace_check.hpp"
#include "util/timer.hpp"

namespace {

using namespace katric;

using Views = std::vector<graph::DistGraph>;

/// Runs `run(sim, views)` the one-shot way: fresh views of `g` under spec's
/// partition and a fresh machine; the core entry points' non-const overloads
/// build preprocessing inside the run.
template <typename Run>
auto oneshot(const graph::CsrGraph& g, const core::RunSpec& spec, const Run& run) {
    auto views = graph::distribute(g, core::make_partition(g, spec));
    net::Simulator sim(spec.num_ranks, spec.network);
    return run(sim, views);
}

core::CountResult oneshot_count(const graph::CsrGraph& g, const core::RunSpec& spec) {
    return oneshot(g, spec, [&](net::Simulator& sim, Views& views) {
        return core::dispatch_algorithm(sim, views, spec);
    });
}

bool same_metrics(const core::CountResult& a, const core::CountResult& b) {
    return a.triangles == b.triangles && a.total_time == b.total_time
           && a.total_words_sent == b.total_words_sent
           && a.max_messages_sent == b.max_messages_sent;
}

}  // namespace

int main(int argc, char** argv) {
    using namespace katric;
    CliParser cli("bench_engine_amortization",
                  "one Engine build vs k one-shot rebuilds on an algorithm sweep");
    cli.option("log-n", "13", "log2 of vertex count");
    cli.option("instance", "rmat",
               "input family: rmat (skewed, the monitoring-workload shape whose "
               "hub preprocessing dominates) or rgg2d (uniform, avg degree 16)");
    cli.option("algos", bench::default_algorithms_csv(), "algorithms to sweep");
    cli.option("reps", "3", "sweep repetitions (wall clocks take the best)");
    cli.option("rounds", "4", "monitor rounds for the steady-state section");
    cli.flag("smoke", "CI preset: small instance, one repetition");
    Config defaults;
    defaults.num_ranks = 16;
    defaults.options.intersect = seq::IntersectKind::kAdaptive;
    bench::add_engine_options(cli, defaults);
    if (!cli.parse(argc, argv)) { return 0; }

    const auto config = bench::engine_config(cli);
    const bool smoke = cli.get_flag("smoke");
    const auto algorithms = bench::parse_algorithms(cli.get_string("algos"));
    const auto reps = smoke ? std::uint64_t{1} : cli.get_uint("reps");
    const graph::VertexId n = graph::VertexId{1}
                              << (smoke ? std::uint64_t{11} : cli.get_uint("log-n"));
    bench::print_header("Engine amortization: 1 build vs k rebuilds", config);

    const auto instance = cli.get_string("instance");
    KATRIC_ASSERT_MSG(instance == "rmat" || instance == "rgg2d",
                      "--instance must be rmat or rgg2d");
    const auto g =
        instance == "rmat"
            ? gen::generate_rmat(static_cast<std::uint32_t>(std::log2(n)), 8 * n, 29)
            : gen::generate_rgg2d_local(n, gen::rgg2d_radius_for_degree(n, 16.0), 29);
    const auto k = algorithms.size();
    std::cout << "instance: " << instance << " n=" << g.num_vertices()
              << " m=" << g.num_edges() << ", p=" << config.num_ranks << ", k=" << k
              << " algorithms, " << reps << " rep(s)\n\n";

    const auto spec_for = [&](core::Algorithm algorithm) {
        auto spec = config.run_spec();
        spec.algorithm = algorithm;
        return spec;
    };

    // --- the sweep, two ways ---------------------------------------------
    double engine_wall = -1.0;
    double build_wall = -1.0;
    double oneshot_wall = -1.0;
    std::vector<Report> engine_reports;
    std::vector<core::CountResult> oneshot_results;
    for (std::uint64_t rep = 0; rep < reps; ++rep) {
        WallTimer timer;
        const Engine engine(g, config);
        const double build_seconds = timer.elapsed_seconds();
        std::vector<Report> reports;
        reports.reserve(k);
        for (const auto algorithm : algorithms) {
            reports.push_back(engine.count(algorithm));
        }
        const double elapsed = timer.elapsed_seconds();
        if (engine_wall < 0.0 || elapsed < engine_wall) {
            engine_wall = elapsed;
            build_wall = build_seconds;
            engine_reports = std::move(reports);
        }

        timer.restart();
        std::vector<core::CountResult> results;
        results.reserve(k);
        for (const auto algorithm : algorithms) {
            results.push_back(oneshot_count(g, spec_for(algorithm)));
        }
        const double oneshot_elapsed = timer.elapsed_seconds();
        if (oneshot_wall < 0.0 || oneshot_elapsed < oneshot_wall) {
            oneshot_wall = oneshot_elapsed;
            oneshot_results = std::move(results);
        }
    }

    // --- equivalence gate ------------------------------------------------
    Table table({"algo", "triangles", "sim time (s)", "volume (words)", "one-shot =="});
    bool identical = true;
    for (std::size_t i = 0; i < k; ++i) {
        const auto& engine_run = engine_reports[i].count;
        const bool match = same_metrics(engine_run, oneshot_results[i]);
        identical = identical && match;
        table.row()
            .cell(core::algorithm_name(algorithms[i]))
            .cell(engine_run.triangles)
            .cell(engine_run.total_time, 5)
            .cell(engine_run.total_words_sent)
            .cell(match ? "yes" : "DIVERGED");
    }
    table.print(std::cout);
    if (!identical) {
        std::cerr << "\nFAIL: an engine result diverged from its one-shot twin\n";
        return 1;
    }

    const double saved = oneshot_wall - engine_wall;
    std::cout << "\nwall clock:     engine " << engine_wall * 1e3 << " ms (build "
              << build_wall * 1e3 << " ms), one-shot " << oneshot_wall * 1e3 << " ms\n"
              << "amortization:   " << saved * 1e3 << " ms saved ("
              << 100.0 * saved / oneshot_wall << "% of the sweep)\n";

    // --- monitor steady state --------------------------------------------
    // One long-lived engine that skips the replay answers rounds of
    // family-algorithm queries; the baseline pays a one-shot run per query.
    const std::vector<core::Algorithm> family = {
        core::Algorithm::kDitric, core::Algorithm::kDitric2, core::Algorithm::kCetric,
        core::Algorithm::kCetric2};
    const auto rounds = std::max<std::uint64_t>(1, cli.get_uint("rounds"));
    Config monitor_config = config;
    monitor_config.reuse_preprocessing = true;
    monitor_config.charge_reused_preprocessing = false;
    const Engine monitor(g, monitor_config);
    for (const auto algorithm : family) { (void)monitor.count(algorithm); }  // warmup
    WallTimer steady_timer;
    std::uint64_t monitor_check = 0;
    for (std::uint64_t round = 0; round < rounds; ++round) {
        for (const auto algorithm : family) {
            monitor_check += monitor.count(algorithm).count.triangles;
        }
    }
    const double monitor_round =
        steady_timer.elapsed_seconds() / static_cast<double>(rounds);

    steady_timer.restart();
    std::uint64_t oneshot_check = 0;
    for (std::uint64_t round = 0; round < rounds; ++round) {
        for (const auto algorithm : family) {
            oneshot_check += oneshot_count(g, spec_for(algorithm)).triangles;
        }
    }
    const double oneshot_round =
        steady_timer.elapsed_seconds() / static_cast<double>(rounds);
    const double steady_saved_percent =
        100.0 * (oneshot_round - monitor_round) / oneshot_round;
    std::cout << "\nmonitor (family sweep x " << rounds << " rounds): "
              << "steady-state round " << monitor_round * 1e3
              << " ms vs one-shot round " << oneshot_round * 1e3 << " ms — "
              << steady_saved_percent << "% saved\n";
    if (monitor_check != oneshot_check) {
        std::cerr << "\nFAIL: monitor counts diverged from the one-shot runs\n";
        return 1;
    }
    if (config.metrics && monitor.observability()) {
        // The serving observability payload: per-query latency p50/p99 from
        // the monitor's registry plus the kernel dispatch mix.
        std::cout << "\n-- monitor metrics (--metrics) --\n" << monitor.metrics_summary();
    }

    // --- mixed query workload against one build --------------------------
    WallTimer mixed_timer;
    const Engine engine(g, config);
    const auto count = engine.count(core::Algorithm::kCetric);
    const auto lcc = engine.lcc(core::Algorithm::kCetric);
    const auto enumerated = engine.enumerate();
    const auto approx = engine.approx_count();
    const double mixed_wall = mixed_timer.elapsed_seconds();

    const auto cetric = spec_for(core::Algorithm::kCetric);
    const auto lcc_twin = oneshot(g, cetric, [&](net::Simulator& sim, Views& views) {
        return core::compute_distributed_lcc(sim, views, g, cetric);
    });
    const auto approx_twin = oneshot(g, cetric, [&](net::Simulator& sim, Views& views) {
        return core::count_triangles_cetric_amq(sim, views, cetric, config.amq);
    });
    const bool mixed_ok = count.ok() && lcc.ok() && enumerated.ok() && approx.ok()
                          && same_metrics(count.count, oneshot_count(g, cetric))
                          && same_metrics(lcc.count, lcc_twin.count)
                          && lcc.delta == lcc_twin.delta
                          && enumerated.triangles.size() == enumerated.count.triangles
                          && approx.estimated_triangles == approx_twin.estimated_triangles
                          && same_metrics(approx.count, approx_twin.metrics);
    std::cout << "\nmixed workload (count + LCC + enumerate + approx, one build): "
              << mixed_wall * 1e3 << " ms, " << engine.queries_run() << " queries\n";
    if (!mixed_ok) {
        std::cerr << "FAIL: mixed-workload results diverged from their one-shot twins\n";
        return 1;
    }

    JsonWriter json;
    json.begin_row()
        .field("mode", std::string("engine-sweep"))
        .field("algorithms", static_cast<std::uint64_t>(k))
        .field("wall_seconds", engine_wall)
        .field("build_seconds", build_wall);
    json.begin_row()
        .field("mode", std::string("oneshot-sweep"))
        .field("algorithms", static_cast<std::uint64_t>(k))
        .field("wall_seconds", oneshot_wall);
    json.begin_row()
        .field("mode", std::string("amortization"))
        .field("saved_seconds", saved)
        .field("saved_percent", 100.0 * saved / oneshot_wall)
        .field("identical_results", std::uint64_t{identical ? 1u : 0u});
    json.begin_row()
        .field("mode", std::string("monitor"))
        .field("rounds", rounds)
        .field("monitor_round_seconds", monitor_round)
        .field("oneshot_round_seconds", oneshot_round)
        .field("steady_saved_percent", steady_saved_percent);
    json.begin_row()
        .field("mode", std::string("mixed-workload"))
        .field("queries", static_cast<std::uint64_t>(4))
        .field("wall_seconds", mixed_wall);
    if (config.metrics && monitor.observability()) {
        for (const auto& row : monitor.observability()->registry().snapshot()) {
            json.begin_row()
                .field("mode", std::string("metric"))
                .field("name", row.name)
                .field("value", row.value);
        }
    }
    json.write(cli.get_string("json"));

    // With --trace-out every engine above appended to one shared timeline;
    // write it now and self-validate against the schema checker (the CI
    // smoke leg re-validates the artifact through the test binary).
    if (!config.trace_out.empty() && monitor.observability()) {
        if (!monitor.observability()->flush_trace()) {
            std::cerr << "FAIL: could not write trace to " << config.trace_out << '\n';
            return 1;
        }
        const auto check = obs::check_trace_file(config.trace_out);
        std::cout << "\ntrace: wrote " << config.trace_out << " — " << check.num_spans
                  << " spans, " << check.num_events << " events, "
                  << (check.ok ? std::string("schema OK")
                               : "SCHEMA INVALID: " + check.error)
                  << '\n';
        if (!check.ok) { return 1; }
    }
    return 0;
}
