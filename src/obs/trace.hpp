#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "net/simulator.hpp"
#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace katric::obs {

/// Trace process of the simulated timeline.
inline constexpr std::uint32_t kSimulatedPid = 1;
/// Trace process of the host timeline: wall seconds per superstep round.
inline constexpr std::uint32_t kHostPid = 2;

/// One closed span on the trace timeline, in microseconds offset from the
/// trace origin — simulated time in process kSimulatedPid, host wall time in
/// kHostPid. Spans are hierarchical by containment: query ⊃ phase ⊃
/// superstep on the control lane, with per-rank busy spans on the rank
/// lanes; query ⊃ superstep ⊃ start/deliver/idle on the host lane.
struct TraceSpan {
    std::string name;
    std::string cat;           ///< "query", "phase", "superstep", "rank", "host"
    std::uint32_t pid = kSimulatedPid;
    std::uint32_t tid = 0;     ///< lane: 0 = control, 1+r = rank r
    double begin_us = 0.0;
    double end_us = 0.0;
    /// Optional counters rendered as trace-event args (rank lanes: ops and
    /// words sent in that superstep). Kept as (key, value) pairs.
    std::vector<std::pair<std::string, std::uint64_t>> args;
};

/// Collects hierarchical spans across an Engine session and exports them as
/// Chrome trace-event JSON (the `{"traceEvents": [...]}` flavour loadable in
/// chrome://tracing and Perfetto).
///
/// Time base: *simulated* seconds, scaled to microseconds. Each recorded
/// query is appended after the previous one on a running cursor, so an
/// engine's query stream reads left-to-right in the viewer even though
/// every query starts its own Simulator at t = 0.
///
/// Lane model (one Perfetto "thread" per lane):
///   tid 0      — control lane: query spans, phase-group spans, supersteps
///   tid 1 + r  — rank r: one busy span per superstep it participated in,
///                with ops/words-sent args (needs record_phase_details)
///
/// A second process, "host", lays the same queries out on their own cursor
/// in host wall time: per superstep, the seconds of its start round, its
/// delivery and its idle rounds (net::PhaseRecord's host fields), laid end
/// to end — where a query's host time went, beside where its simulated time
/// went. The delivery span carries its delivery-window count and how many
/// of them fanned out. Host time is measured, so two runs' host lanes
/// differ.
///
/// Thread safety: record_query / to_json / write serialize on
/// an internal mutex, so concurrent serve workers (and a StreamSession on
/// another thread) can append to one shared timeline. Appended queries are
/// placed at the cursor in arrival order. spans() is NOT synchronized — call
/// it only when no recorder can be running (tests, post-drain inspection).
class Tracer {
public:
    /// Appends the spans of one finished query run. `label` names the query
    /// span ("count#3", "lcc#0", …); phases/supersteps come from the
    /// simulator's phase records; rank lanes are emitted only when the
    /// simulator recorded phase details. Zero-duration supersteps are
    /// skipped — they carry no information and would render as degenerate
    /// slices.
    void record_query(const std::string& label, const net::Simulator& sim);

    /// Quiescence-only accessor (see class comment): reads the span list
    /// without the mutex, so the caller must guarantee no recorder is
    /// running. The one deliberate analysis escape in the tracer — a scoped
    /// hold cannot be returned alongside the reference.
    [[nodiscard]] const std::vector<TraceSpan>& spans() const noexcept
        KATRIC_NO_THREAD_SAFETY_ANALYSIS {
        return spans_;
    }
    [[nodiscard]] std::size_t num_queries() const noexcept {
        return queries_.load(std::memory_order_relaxed);
    }

    /// Serializes to Chrome trace-event JSON: sorted begin/end event pairs
    /// plus process/thread metadata naming the lanes.
    [[nodiscard]] std::string to_json() const;

    /// Writes to_json() to a file; returns false on I/O failure.
    bool write(const std::string& path) const;

private:
    /// The host-lane spans of one query (see the class comment).
    void record_host(const std::string& label, std::span<const net::PhaseRecord> phases)
        KATRIC_REQUIRES(mutex_);

    mutable util::Mutex mutex_;
    std::vector<TraceSpan> spans_ KATRIC_GUARDED_BY(mutex_);
    /// End of the last recorded query.
    double cursor_us_ KATRIC_GUARDED_BY(mutex_) = 0.0;
    /// End of the last recorded query on the host timeline.
    double host_cursor_us_ KATRIC_GUARDED_BY(mutex_) = 0.0;
    /// Widest rank lane seen.
    std::uint32_t max_tid_ KATRIC_GUARDED_BY(mutex_) = 0;
    std::atomic<std::size_t> queries_{0};
};

}  // namespace katric::obs
