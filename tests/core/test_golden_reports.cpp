#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <string>
#include <vector>

#include "engine.hpp"
#include "gen/rgg2d.hpp"
#include "gen/rmat.hpp"
#include "stream/edge_stream.hpp"
#include "support/golden.hpp"
#include "support/trace_check.hpp"
#include "util/hash.hpp"

namespace katric {
namespace {

/// The simulated-cost golden: every Engine query kind over a fixed grid of
/// cells, one line per report, pinned in tests/core/golden_reports.txt.
/// The simulator is deterministic, so these numbers are exact functions of
/// (graph seed, Config): integers must match exactly, doubles to 1e-12
/// relative. Every run writes its recomputed file next to the test binaries
/// (KATRIC_GOLDEN_OUT) — a reviewed `cp` of that file over the golden is how
/// an intended change lands.
constexpr graph::Rank kRanks = 12;

using test::golden_mismatch;
using test::Line;

template <typename T, typename Bits>
std::uint64_t hash_values(const std::vector<T>& values, const Bits& bits) {
    std::uint64_t h = hash64(values.size());
    for (const auto& value : values) { h = hash_combine(h, bits(value)); }
    return h;
}

std::uint64_t hash_words(const std::vector<std::uint64_t>& values) {
    return hash_values(values, [](std::uint64_t v) { return v; });
}

std::uint64_t hash_doubles(const std::vector<double>& values) {
    return hash_values(values, [](double v) { return std::bit_cast<std::uint64_t>(v); });
}

std::uint64_t hash_triangles(const std::vector<core::Triangle>& triangles) {
    return hash_values(triangles, [](const core::Triangle& t) {
        return hash_combine(hash_combine(hash64(t.a), t.b), t.c);
    });
}

void add_count(Line& line, const std::string& prefix, const core::CountResult& c) {
    line.add(prefix + "triangles", c.triangles);
    line.add(prefix + "oom", std::uint64_t{c.oom});
    line.add(prefix + "error", static_cast<std::uint64_t>(c.error));
    line.add(prefix + "total_time", c.total_time);
    line.add(prefix + "preprocessing_time", c.preprocessing_time);
    line.add(prefix + "local_time", c.local_time);
    line.add(prefix + "contraction_time", c.contraction_time);
    line.add(prefix + "global_time", c.global_time);
    line.add(prefix + "reduce_time", c.reduce_time);
    line.add(prefix + "max_messages_sent", c.max_messages_sent);
    line.add(prefix + "max_words_sent", c.max_words_sent);
    line.add(prefix + "total_messages_sent", c.total_messages_sent);
    line.add(prefix + "total_words_sent", c.total_words_sent);
    line.add(prefix + "max_peak_buffer_words", c.max_peak_buffer_words);
    line.add(prefix + "local_phase_triangles", c.local_phase_triangles);
    line.add(prefix + "global_phase_triangles", c.global_phase_triangles);
}

/// The fields every query kind shares: the count, ops, per-phase seconds.
Line report_line(const std::string& cell, const Report& report) {
    Line line(cell);
    add_count(line, "", report.count);
    line.add("total_compute_ops", report.total_compute_ops);
    line.add("max_compute_ops", report.max_compute_ops);
    for (const auto& phase : report.phases) {
        line.add("phase." + phase.name, phase.seconds);
    }
    return line;
}

Line lcc_line(const std::string& cell, const Report& report) {
    Line line = report_line(cell, report);
    line.add("postprocess_time", report.postprocess_time);
    line.add_hash("delta_hash", hash_words(report.delta));
    line.add_hash("lcc_hash", hash_doubles(report.lcc));
    return line;
}

Line enumerate_line(const std::string& cell, const Report& report) {
    Line line = report_line(cell, report);
    line.add_hash("triangles_hash", hash_triangles(report.triangles));
    std::vector<std::uint64_t> found(report.found_per_rank.begin(),
                                     report.found_per_rank.end());
    line.add_hash("found_per_rank_hash", hash_words(found));
    return line;
}

Line approx_line(const std::string& cell, const Report& report) {
    Line line = report_line(cell, report);
    line.add("estimated_triangles", report.estimated_triangles);
    line.add("exact_type12", report.exact_type12);
    line.add("estimated_type3", report.estimated_type3);
    return line;
}

Line stream_line(const std::string& cell, const Report& report) {
    Line line = lcc_line(cell, report);
    add_count(line, "initial.", report.initial);
    line.add("stream_seconds", report.stream_seconds);
    for (std::size_t i = 0; i < report.batches.size(); ++i) {
        const auto& batch = report.batches[i];
        const auto prefix = std::string("b") + std::to_string(i) + ".";
        line.add(prefix + "seconds", batch.seconds);
        line.add(prefix + "lcc_seconds", batch.lcc_seconds);
        line.add(prefix + "messages", batch.messages_sent);
        line.add(prefix + "words", batch.words_sent);
        line.add(prefix + "triangles", batch.triangles);
    }
    return line;
}

struct GoldenGraph {
    std::string name;
    graph::CsrGraph graph;
};

std::vector<GoldenGraph> golden_graphs() {
    std::vector<GoldenGraph> graphs;
    graphs.push_back({"rmat", gen::generate_rmat(9, 4096, 3)});
    const double radius = gen::rgg2d_radius_for_degree(512, 12.0);
    graphs.push_back({"rgg", gen::generate_rgg2d_local(512, radius, 5)});
    return graphs;
}

/// The default cell plus one axis varied at a time.
struct Axis {
    std::string name;
    void (*apply)(Config&);
};

const std::vector<Axis>& axes() {
    static const std::vector<Axis> list = {
        {"default", [](Config&) {}},
        {"compress", [](Config& c) { c.options.compress_neighborhoods = true; }},
        {"threads4", [](Config& c) { c.options.threads = 4; }},
        {"detect", [](Config& c) { c.options.detect_termination = true; }},
        {"harden", [](Config& c) { c.harden = true; }},
    };
    return list;
}

/// One (graph, axis) block of cells, in golden order, appended to `lines`.
/// Every engine starts from `base`, then the axis and the cell apply.
void append_axis_cells(std::vector<std::string>& lines, const GoldenGraph& graph,
                       const Axis& axis, const Config& base) {
    for (const auto partition : {core::PartitionStrategy::kBalancedEdges,
                                 core::PartitionStrategy::kUniformVertices}) {
        for (const auto kernel :
             {seq::IntersectKind::kMerge, seq::IntersectKind::kAdaptive}) {
            Config config = base;
            config.num_ranks = kRanks;
            config.partition = partition;
            config.options.intersect = kernel;
            axis.apply(config);
            const Engine engine(graph.graph, config);
            const std::string prefix = graph.name + "/" + axis.name + "/"
                                       + partition_strategy_name(partition) + "/"
                                       + seq::intersect_kind_name(kernel) + "/";
            for (const auto algorithm : core::all_algorithms()) {
                QueryOptions query;
                query.algorithm = algorithm;
                const std::string cell = prefix + core::algorithm_name(algorithm);
                lines.push_back(report_line(cell + "/count", engine.count(query)).text());
                if (!core::algorithm_supports_sink(algorithm)) { continue; }
                lines.push_back(lcc_line(cell + "/lcc", engine.lcc(query)).text());
                lines.push_back(
                    enumerate_line(cell + "/enumerate", engine.enumerate(query)).text());
            }
            for (const bool adaptive : {false, true}) {
                core::AmqOptions amq;
                amq.adaptive = adaptive;
                const std::string cell =
                    prefix + (adaptive ? "AMQ/approx-adaptive" : "AMQ/approx");
                lines.push_back(approx_line(cell, engine.approx_count(amq)).text());
            }
        }
    }
}

std::vector<std::string> recompute_golden() {
    std::vector<std::string> lines;
    const auto graphs = golden_graphs();
    for (const auto& graph : graphs) {
        for (const auto& axis : axes()) {
            append_axis_cells(lines, graph, axis, Config{});
        }
    }

    const auto& base = graphs.front().graph;
    const auto batches = stream::make_churn_stream(base, 256, 0.4, 7).batches_of(64);
    for (const auto kernel :
         {seq::IntersectKind::kMerge, seq::IntersectKind::kAdaptive}) {
        for (const bool indirect : {false, true}) {
            Config config;
            config.algorithm = core::Algorithm::kCetric;
            config.num_ranks = kRanks;
            config.maintain_lcc = true;
            config.stream_indirect = indirect;
            config.options.intersect = kernel;
            const Engine engine(base, config);
            const std::string cell =
                "rmat/stream/balanced/" + seq::intersect_kind_name(kernel) + "/CETRIC/"
                + (indirect ? "stream-indirect" : "stream-direct");
            lines.push_back(stream_line(cell, engine.stream(batches)).text());
        }
    }
    return lines;
}

std::vector<std::string> read_golden() { return test::read_golden(KATRIC_GOLDEN_FILE); }

TEST(GoldenReports, SimulatedCostsMatchTheCheckedInGolden) {
    const auto actual = recompute_golden();
    const auto golden = read_golden();
    test::write_golden(KATRIC_GOLDEN_OUT, actual, golden);

    ASSERT_FALSE(golden.empty()) << "missing golden " << KATRIC_GOLDEN_FILE
                                 << "; recomputed file written to " << KATRIC_GOLDEN_OUT;
    const auto diff = golden_mismatch(golden, actual);
    EXPECT_TRUE(diff.empty()) << diff << "\nrecomputed file: " << KATRIC_GOLDEN_OUT;
}

/// Observability records, it never steers: the default-axis cells of both
/// graphs, rerun with the metrics registry on and a trace written, render
/// exactly the golden's default lines.
TEST(GoldenReports, ObservabilityLeavesDefaultCellsUnchanged) {
    Config observed;
    observed.metrics = true;
    // In the build tree; a stale file from an earlier run must not pass.
    observed.trace_out = "golden_reports.trace.json";
    std::remove(observed.trace_out.c_str());
    std::vector<std::string> actual;
    for (const auto& graph : golden_graphs()) {
        append_axis_cells(actual, graph, axes().front(), observed);
    }

    std::vector<std::string> golden;
    for (const auto& line : read_golden()) {
        const auto cell = line.substr(0, line.find(' '));
        if (cell.find("/default/") != std::string::npos) { golden.push_back(line); }
    }
    ASSERT_FALSE(golden.empty()) << "missing golden " << KATRIC_GOLDEN_FILE;
    const auto diff = golden_mismatch(golden, actual);
    EXPECT_TRUE(diff.empty()) << diff;

    // Every engine is gone, so its trace has been written.
    const auto check = test::check_trace_file(observed.trace_out);
    EXPECT_TRUE(check.ok) << check.error;
    EXPECT_GT(check.num_spans, 0u);
    std::remove(observed.trace_out.c_str());
}

}  // namespace
}  // namespace katric
