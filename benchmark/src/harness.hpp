#pragma once

// Measurement plumbing shared by every workload: the command line, the
// result (metrics, op accounting, failures, provenance), in-memory spans
// written as a Chrome trace, and the end-to-end metric set.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "host_probe.hpp"
#include "util/statistics.hpp"
#include "util/timer.hpp"

namespace katric::benchmark {

/// One benchmark process: one workload, one seed, traced or not.
struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    /// Length of the timed phase in host seconds.
    double seconds = 25.0;
    /// Traced run: per-layer metrics instead of end-to-end ones.
    bool trace = false;
    /// Tiny inputs and windows (the smoke test).
    bool smoke = false;
    std::string out_dir = "benchmark/out";
    std::string git_sha = "unknown";

    /// Stem of this run's output files: "<workload>-seed<seed>[-trace]".
    [[nodiscard]] std::string stem() const;
    /// Seed for one purpose ("graph", "shuffle", "churn"...) derived from
    /// --seed, so the inputs are a pure function of it.
    [[nodiscard]] std::uint64_t derived_seed(std::uint64_t purpose) const;
};

/// Everything one process measured and checked.
class Result {
public:
    void add(const std::string& name, double value, const std::string& unit);

    /// One operation of the workload: attempted, and failed unless `ok`.
    void op(bool ok, const std::string& what);
    /// A check outside the timed operations (references, checkpoints); a
    /// failed check counts as one failed attempt.
    void expect(bool ok, const std::string& what);

    [[nodiscard]] std::size_t attempted() const noexcept { return attempted_; }
    [[nodiscard]] std::size_t failed() const noexcept { return failed_; }
    [[nodiscard]] bool correct() const noexcept { return failed_ == 0 && attempted_ > 0; }

    /// Provenance of the timed phase: its op count, its wall seconds and the
    /// median host probe (plain seconds) its times were scaled by.
    void set_timed(std::size_t ops, double wall_seconds, double probe_seconds) {
        timed_ops_ = ops;
        timed_seconds_ = wall_seconds;
        probe_seconds_ = probe_seconds;
    }

    /// "workload metric value unit" lines.
    [[nodiscard]] std::string lines(const std::string& workload) const;
    /// The one-line summary object the last line of stdout carries.
    [[nodiscard]] std::string summary_json() const;
    /// The full result file: summary, failures, provenance.
    [[nodiscard]] std::string file_json(const Options& options) const;

private:
    struct Metric {
        std::string name;
        double value;
        std::string unit;
    };
    [[nodiscard]] std::string metrics_json() const;

    std::vector<Metric> metrics_;
    std::size_t attempted_ = 0;
    std::size_t failed_ = 0;
    std::vector<std::string> failures_;  ///< first few reasons
    std::size_t timed_ops_ = 0;
    double timed_seconds_ = 0.0;
    double probe_seconds_ = 0.0;
};

/// Host-time spans kept in memory and written once as Chrome trace-event
/// JSON: begin/end pairs per lane (lane 0 is the benchmark thread, lanes
/// 1.. are in-flight serve requests). Disabled recorders ignore every call.
class SpanRecorder {
public:
    explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

    void begin(const std::string& name, int lane = 0);
    void end(int lane = 0);

    /// RAII span on lane 0.
    class Scope {
    public:
        Scope(SpanRecorder& spans, const std::string& name) : spans_(&spans) {
            spans_->begin(name);
        }
        ~Scope() { spans_->end(); }
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

    private:
        SpanRecorder* spans_;
    };

    /// Writes the trace; false on I/O failure. No-op (true) when disabled.
    bool write(const std::string& path) const;

private:
    struct Event {
        bool begin;
        int lane;
        double ts_us;
        std::string name;
    };
    bool enabled_;
    WallTimer clock_;
    std::vector<Event> events_;
};

/// Host seconds of one call.
template <typename Fn>
double timed(Fn&& fn) {
    const WallTimer timer;
    fn();
    return timer.elapsed_seconds();
}

/// The timed operations of a run and the window they ran in.
struct OpLog {
    struct Op {
        double latency;
        /// Position in the workload's op cycle.
        std::size_t position;
        /// Completion time, seconds into the window.
        double done_at;
    };
    std::vector<Op> entries;
    double window_seconds = 0.0;

    void add(double latency, std::size_t position, double done_at) {
        entries.push_back({latency, position, done_at});
    }
    /// Appends `other` as if its window followed this one.
    void merge(const OpLog& other);
    /// The same log with every time (latencies, completions, the window)
    /// multiplied by `factor`.
    [[nodiscard]] OpLog scaled(double factor) const;
    [[nodiscard]] std::size_t ops() const noexcept { return entries.size(); }
    /// Pooled percentile over every op; q in [0, 1].
    [[nodiscard]] double percentile(double q) const;
    /// The median latency of each cycle position, averaged with the
    /// positions' shares of the ops. A cycle mixes ops of different cost
    /// (four algorithms; count, lcc and approx), and the pooled median of
    /// such a mix sits on the gap between two cost clusters, where it jumps
    /// from run to run.
    [[nodiscard]] double typical_latency() const;
    /// The window cut into `count` equal rounds, ops by completion time.
    [[nodiscard]] std::vector<OpLog> rounds(std::size_t count) const;
    /// Ops per second in each of `count` equal rounds, every op counted in
    /// proportion to the part of its run time that falls in the round (no
    /// rounding to whole ops, which would move a 20-op round by 5%).
    [[nodiscard]] std::vector<double> round_rates(std::size_t count) const;
};

/// Rounds a run's timed window is cut into. Host metrics are computed per
/// round and reported as the median over the rounds: the shared host runs
/// everything 10–30% slower for a few seconds at a time, and the median
/// keeps one such episode out of the result.
inline constexpr std::size_t kRounds = 5;

/// Simulated cost per operation, over the workload's fixed op cycle (the
/// deterministic prefix every run completes, so these are exact).
struct SimCost {
    double time_s = 0.0;
    double max_words_pe = 0.0;
    double max_msgs_pe = 0.0;
    double peak_buffer_words = 0.0;
};

/// How many Engine constructions setup_s takes the median of.
inline constexpr int kSetupRepetitions = 9;

/// HostProbe::sample() seconds on the reference host: the development
/// machine of benchmark/README.md, whose probe medians read 4.0–4.5 ms.
/// Host metrics are reported in seconds at that speed.
inline constexpr double kReferenceProbeSeconds = 0.004;

/// An untraced run's timed phase. Times are host seconds at the reference
/// speed: each measured time is multiplied by kReferenceProbeSeconds over
/// the host probe's time beside it. The shared host's speed drifts by up
/// to 40% over minutes, and the probe, whose work no change to the library
/// can move, takes that drift out.
struct TimedPhase {
    OpLog log;
    Summary setup;   ///< Engine constructions
    Summary probe;   ///< the probe's own samples, in plain host seconds
    double wall_seconds = 0.0;
};

/// Probes per Engine construction in the timed phase: one about every
/// second, since the host's slow stretches last a few seconds.
inline constexpr std::size_t kProbesPerSetup = 3;

/// `seconds` of wall time cut into kSetupRepetitions × kProbesPerSetup equal
/// segments. Each runs `segment(seconds, min_ops)`, which returns its OpLog;
/// every kProbesPerSetup-th is followed by one timed construction
/// `construct()`, which returns its seconds; each ends with a probe. A
/// segment's times are scaled by the mean of the probes on either side of
/// it, a construction's by the probe right after it. Spreading the
/// constructions over the phase keeps their median, like the rounds, clear
/// of a slow episode of the host. The log leaves the constructions and
/// probes out of its window.
template <typename Segment, typename Construct>
TimedPhase run_timed_phase(double seconds, std::size_t min_ops, HostProbe& probe,
                           Segment&& segment, Construct&& construct) {
    constexpr std::size_t kSegments = kSetupRepetitions * kProbesPerSetup;
    const std::size_t segment_min_ops = (min_ops + kSegments - 1) / kSegments;
    TimedPhase phase;
    const WallTimer wall;
    double before = probe.sample();
    phase.probe.add(before);
    for (std::size_t i = 1; i <= kSegments; ++i) {
        const double until = seconds * static_cast<double>(i) / kSegments;
        const double left = until - wall.elapsed_seconds();
        const OpLog log = segment(left > 0.0 ? left : 0.0, segment_min_ops);
        const bool constructs = i % kProbesPerSetup == 0;
        const double setup = constructs ? construct() : 0.0;
        const double after = probe.sample();
        phase.probe.add(after);
        phase.log.merge(log.scaled(2.0 * kReferenceProbeSeconds / (before + after)));
        if (constructs) { phase.setup.add(setup * kReferenceProbeSeconds / after); }
        before = after;
    }
    phase.wall_seconds = wall.elapsed_seconds();
    return phase;
}

/// The end-to-end metrics of an untraced run.
void emit_end_to_end(Result& result, const TimedPhase& phase, const SimCost& sim);

/// median(with) / median(base) − 1, 0 when either side has no samples.
[[nodiscard]] double relative_overhead(const Summary& base, const Summary& with);
/// The same for the typical op latency of two logs.
[[nodiscard]] double relative_overhead(const OpLog& base, const OpLog& with);

/// Process peak resident set in MiB (getrusage ru_maxrss).
[[nodiscard]] double peak_rss_mib();

}  // namespace katric::benchmark
