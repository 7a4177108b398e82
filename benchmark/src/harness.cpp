#include "harness.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>

#include "seq/intersection_simd.hpp"
#include "util/random.hpp"

#ifndef KATRIC_BENCH_COMPILER
#define KATRIC_BENCH_COMPILER "unknown"
#endif
#ifndef KATRIC_BENCH_BUILD_TYPE
#define KATRIC_BENCH_BUILD_TYPE "unknown"
#endif

namespace katric::benchmark {

namespace {

constexpr std::size_t kMaxFailureReasons = 8;

/// Shortest text that reads back as the same double; JSON has no NaN or
/// infinity, so those become null (and the smoke check flags them).
std::string number(double value) {
    if (!std::isfinite(value)) { return "null"; }
    char buffer[32];
    const auto end = std::to_chars(buffer, buffer + sizeof buffer, value).ptr;
    return {buffer, end};
}

std::string quoted(const std::string& text) {
    std::string out = "\"";
    for (const char c : text) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buffer[8];
                    std::snprintf(buffer, sizeof buffer, "\\u%04x", c);
                    out += buffer;
                } else {
                    out += c;
                }
        }
    }
    return out + "\"";
}

}  // namespace

std::string Options::stem() const {
    return workload + "-seed" + std::to_string(seed) + (trace ? "-trace" : "");
}

std::uint64_t Options::derived_seed(std::uint64_t purpose) const {
    return derive_seed(seed, purpose);
}

void Result::add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
}

void Result::op(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
        ++failed_;
        if (failures_.size() < kMaxFailureReasons) { failures_.push_back(what); }
    }
}

void Result::expect(bool ok, const std::string& what) {
    if (!ok) { op(false, what); }
}

std::string Result::lines(const std::string& workload) const {
    std::ostringstream out;
    for (const auto& metric : metrics_) {
        out << workload << ' ' << metric.name << ' ' << number(metric.value) << ' '
            << metric.unit << '\n';
    }
    for (const auto& reason : failures_) { out << "FAILED: " << reason << '\n'; }
    return out.str();
}

std::string Result::metrics_json() const {
    std::ostringstream out;
    out << '{';
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
        out << (i > 0 ? ", " : "") << quoted(metrics_[i].name)
            << ": {\"value\": " << number(metrics_[i].value)
            << ", \"unit\": " << quoted(metrics_[i].unit) << '}';
    }
    out << '}';
    return out.str();
}

std::string Result::summary_json() const {
    std::ostringstream out;
    out << "{\"correct\": " << (correct() ? "true" : "false")
        << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
        << ", \"metrics\": " << metrics_json() << '}';
    return out.str();
}

std::string Result::file_json(const Options& options) const {
    std::ostringstream out;
    out << "{\n  \"workload\": " << quoted(options.workload)
        << ",\n  \"seed\": " << options.seed
        << ",\n  \"trace\": " << (options.trace ? "true" : "false")
        << ",\n  \"smoke\": " << (options.smoke ? "true" : "false")
        << ",\n  \"correct\": " << (correct() ? "true" : "false")
        << ",\n  \"attempted\": " << attempted_ << ",\n  \"failed\": " << failed_
        << ",\n  \"failures\": [";
    for (std::size_t i = 0; i < failures_.size(); ++i) {
        out << (i > 0 ? ", " : "") << quoted(failures_[i]);
    }
    out << "],\n  \"provenance\": {"
        << "\"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
        << ", \"hardware_concurrency\": " << std::thread::hardware_concurrency()
        << ", \"compiler\": " << quoted(KATRIC_BENCH_COMPILER)
        << ", \"build_type\": " << quoted(KATRIC_BENCH_BUILD_TYPE)
        << ", \"simd_available\": " << (seq::simd_available() ? "true" : "false")
        << ", \"git_sha\": " << quoted(options.git_sha)
        << ", \"seed\": " << options.seed
        << ", \"run_seconds\": " << number(options.seconds) << ", \"ops\": " << timed_ops_
        << ", \"timed_wall_seconds\": " << number(timed_seconds_)
        << ", \"host_probe_s\": " << number(probe_seconds_)
        << ", \"reference_probe_s\": " << number(kReferenceProbeSeconds) << "},\n"
        << "  \"metrics\": " << metrics_json() << "\n}\n";
    return out.str();
}

void SpanRecorder::begin(const std::string& name, int lane) {
    if (!enabled_) { return; }
    events_.push_back({true, lane, clock_.elapsed_seconds() * 1e6, name});
}

void SpanRecorder::end(int lane) {
    if (!enabled_) { return; }
    events_.push_back({false, lane, clock_.elapsed_seconds() * 1e6, ""});
}

bool SpanRecorder::write(const std::string& path) const {
    if (!enabled_) { return true; }
    std::ofstream file(path);
    file << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n"
         << R"({"ph": "M", "pid": 1, "tid": 0, "name": "process_name", )"
         << R"("args": {"name": "katric benchmark, host time"}})";
    for (const auto& event : events_) {
        file << ",\n{\"ph\": \"" << (event.begin ? 'B' : 'E')
             << "\", \"pid\": 1, \"tid\": " << event.lane
             << ", \"ts\": " << number(event.ts_us);
        if (event.begin) { file << ", \"name\": " << quoted(event.name); }
        file << '}';
    }
    file << "\n]}\n";
    return static_cast<bool>(file);
}

void OpLog::merge(const OpLog& other) {
    for (const auto& op : other.entries) {
        add(op.latency, op.position, window_seconds + op.done_at);
    }
    window_seconds += other.window_seconds;
}

OpLog OpLog::scaled(double factor) const {
    OpLog log;
    for (const auto& op : entries) {
        log.add(op.latency * factor, op.position, op.done_at * factor);
    }
    log.window_seconds = window_seconds * factor;
    return log;
}

double OpLog::percentile(double q) const {
    Summary summary;
    for (const auto& op : entries) { summary.add(op.latency); }
    return summary.count() > 0 ? summary.percentile(q) : 0.0;
}

double OpLog::typical_latency() const {
    std::map<std::size_t, Summary> by_position;
    for (const auto& op : entries) { by_position[op.position].add(op.latency); }
    double weighted = 0.0;
    for (const auto& [position, summary] : by_position) {
        weighted += summary.median() * static_cast<double>(summary.count());
    }
    return entries.empty() ? 0.0 : weighted / static_cast<double>(entries.size());
}

std::vector<OpLog> OpLog::rounds(std::size_t count) const {
    std::vector<OpLog> rounds(count);
    const double length = window_seconds / static_cast<double>(count);
    for (auto& round : rounds) { round.window_seconds = length; }
    for (const auto& op : entries) {
        const auto index =
            length > 0.0 ? static_cast<std::size_t>(op.done_at / length) : std::size_t{0};
        rounds[std::min(index, count - 1)].add(op.latency, op.position, op.done_at);
    }
    return rounds;
}

std::vector<double> OpLog::round_rates(std::size_t count) const {
    const double length = window_seconds / static_cast<double>(count);
    std::vector<double> work(count, 0.0);
    for (const auto& op : entries) {
        const double start = op.done_at - op.latency;
        for (std::size_t r = 0; r < count; ++r) {
            const double lo = static_cast<double>(r) * length;
            const double overlap =
                std::min(lo + length, op.done_at) - std::max(lo, start);
            if (overlap > 0.0) { work[r] += overlap / op.latency; }
        }
    }
    for (auto& rate : work) { rate = length > 0.0 ? rate / length : 0.0; }
    return work;
}

void emit_end_to_end(Result& result, const TimedPhase& phase, const SimCost& sim) {
    const OpLog& log = phase.log;
    Summary typical;
    for (const auto& round : log.rounds(kRounds)) {
        if (round.ops() > 0) { typical.add(round.typical_latency()); }
    }
    Summary throughput;
    for (const double rate : log.round_rates(kRounds)) { throughput.add(rate); }
    result.add("setup_s", phase.setup.median(), "s");
    result.add("latency_p50_s", typical.median(), "s");
    // Pooled over the whole window: a round holds too few ops for its own
    // p90 to have ten samples beyond it.
    result.add("latency_p90_s", log.percentile(0.9), "s");
    result.add("throughput_ops_per_s", throughput.median(), "1/s");
    result.add("sim_time_s", sim.time_s, "s");
    result.add("sim_max_words_pe", sim.max_words_pe, "words");
    result.add("sim_max_msgs_pe", sim.max_msgs_pe, "msgs");
    result.add("sim_peak_buffer_words", sim.peak_buffer_words, "words");
    result.add("peak_rss_mib", peak_rss_mib(), "MiB");
    const auto attempted = static_cast<double>(result.attempted());
    const auto failed = static_cast<double>(result.failed());
    result.add("ok_frac", attempted > 0 ? (attempted - failed) / attempted : 0.0, "frac");
    result.set_timed(log.ops(), phase.wall_seconds, phase.probe.median());
}

double relative_overhead(const Summary& base, const Summary& with) {
    if (base.count() == 0 || with.count() == 0) { return 0.0; }
    return with.median() / base.median() - 1.0;
}

double relative_overhead(const OpLog& base, const OpLog& with) {
    if (base.ops() == 0 || with.ops() == 0) { return 0.0; }
    return with.typical_latency() / base.typical_latency() - 1.0;
}

double peak_rss_mib() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

}  // namespace katric::benchmark
