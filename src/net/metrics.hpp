#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace katric::net {

/// Per-PE communication and compute counters. These are *exact*
/// combinatorial quantities — independent of the time model — and are the
/// basis of the paper's "sent messages" and "bottleneck volume" plots.
/// Cache-line aligned: the ranks of a parallel start round update their own
/// counters concurrently and must not share a line.
struct alignas(64) RankMetrics {
    std::uint64_t messages_sent = 0;
    std::uint64_t messages_received = 0;
    std::uint64_t words_sent = 0;
    std::uint64_t words_received = 0;
    std::uint64_t compute_ops = 0;
    /// High-water mark of buffered outgoing communication data (message
    /// queue buffers, static aggregation buffers).
    std::uint64_t peak_buffered_words = 0;

    void merge(const RankMetrics& other) noexcept;

    friend bool operator==(const RankMetrics&, const RankMetrics&) = default;
};

/// Max over PEs of messages_sent — the paper's Fig. 5 middle row.
[[nodiscard]] std::uint64_t max_messages_sent(std::span<const RankMetrics> ranks) noexcept;
/// Max over PEs of words_sent — the paper's "bottleneck communication volume".
[[nodiscard]] std::uint64_t max_words_sent(std::span<const RankMetrics> ranks) noexcept;
[[nodiscard]] std::uint64_t total_words_sent(std::span<const RankMetrics> ranks) noexcept;
[[nodiscard]] std::uint64_t total_messages_sent(std::span<const RankMetrics> ranks) noexcept;
[[nodiscard]] std::uint64_t max_peak_buffered(std::span<const RankMetrics> ranks) noexcept;

/// Simulated timing of one superstep.
struct PhaseRecord {
    std::string name;
    double start_time = 0.0;
    double end_time = 0.0;  ///< after the closing barrier
    /// Per-rank detail, filled only when Simulator::record_phase_details is
    /// on (observability enabled): each rank's busy clock at phase end and
    /// the metric deltas it accrued during this superstep. Empty otherwise.
    std::vector<double> rank_busy_end;
    std::vector<RankMetrics> rank_delta;
    /// Host wall seconds of this superstep's start round, of its delivery
    /// (events, lost-frame sweeps) and of its idle rounds. Measured, so not
    /// deterministic: nothing that compares runs may read them.
    double host_start_seconds = 0.0;
    double host_deliver_seconds = 0.0;
    double host_idle_seconds = 0.0;
    /// Delivery windows this superstep popped (see Simulator), and how many
    /// of them fanned out to the rank pool. Host bookkeeping like the
    /// seconds above: the fanned count depends on the host's cores.
    std::uint64_t host_windows = 0;
    std::uint64_t host_windows_fanned = 0;
    [[nodiscard]] double duration() const noexcept { return end_time - start_time; }
};

/// Sums the durations of all phases whose name matches exactly.
[[nodiscard]] double phase_time(std::span<const PhaseRecord> phases, const std::string& name);

/// True if `name` matches `pattern`: exact match, or — when the pattern ends
/// in '*' — a prefix match ("preprocessing*" matches "preprocessing" and
/// "preprocessing:exchange").
[[nodiscard]] bool phase_name_matches(const std::string& name, const std::string& pattern);

/// Sums the durations of all phases whose name matches the pattern
/// (phase_name_matches semantics). "*" sums everything.
[[nodiscard]] double phase_time_matching(std::span<const PhaseRecord> phases,
                                         const std::string& pattern);

/// One row of a fig7-style per-phase breakdown: all supersteps sharing a
/// group key, with their summed simulated time and communication totals.
struct PhaseAgg {
    std::string name;            ///< group key (see aggregate_phase_times)
    double seconds = 0.0;        ///< summed superstep durations
    std::size_t supersteps = 0;  ///< number of matching PhaseRecords
    std::uint64_t messages_sent = 0;  ///< summed over ranks and supersteps
    std::uint64_t words_sent = 0;     ///< (0 unless phase details recorded)
};

/// Groups supersteps into a per-phase breakdown, in first-appearance order.
/// The group key is the superstep name truncated at the first ':' or '/'
/// separator, so "preprocessing:exchange" and "preprocessing:apply" fold
/// into one "preprocessing" row while "local" stays its own row.
[[nodiscard]] std::vector<PhaseAgg> aggregate_phase_times(std::span<const PhaseRecord> phases);

}  // namespace katric::net
