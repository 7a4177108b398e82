#pragma once

#include <cstdint>
#include <vector>

#include "net/simulator.hpp"

namespace katric::net {

/// Distributed termination detection by the four-counter method (Mattern):
/// the simulator's phases detect quiescence omnisciently, which a real
/// asynchronous sparse all-to-all cannot — it must *prove* that no message
/// is in flight. The protocol:
///
///   1. When a PE becomes locally idle, it reports its send/receive counters
///      (s_i, r_i) to the coordinator (rank 0) via control messages.
///   2. The coordinator accumulates a global snapshot (S, R) per wave.
///   3. Termination is declared when two *consecutive* waves return the same
///      snapshot with S = R — the first wave alone can race with in-flight
///      messages, the repeated identical count cannot (no message was sent
///      or received between the waves, and none is outstanding).
///   4. The coordinator broadcasts the verdict.
///
/// Usage inside a phase: algorithms call note_sent/note_received from their
/// traffic paths and drive waves from the idle hook; terminated() flips once
/// the verdict broadcast arrives. The control traffic itself is sent through
/// the simulator, so its α/β cost appears in the metrics like any other
/// message (this is the realism the omniscient phase loop lacks).
class TerminationDetector {
public:
    /// Tags must not collide with algorithm traffic.
    explicit TerminationDetector(Rank num_ranks, int report_tag = 9001,
                                 int verdict_tag = 9002);

    // --- traffic accounting (call from the algorithm's send/deliver paths) --
    void note_sent(Rank self, std::uint64_t messages = 1) { sent_[self] += messages; }
    void note_received(Rank self, std::uint64_t messages = 1) {
        received_[self] += messages;
    }

    /// Idle hook: reports the current counters to the coordinator if they
    /// changed since the last report (or if a new wave was requested).
    void on_idle(RankHandle& self);

    /// Message hook: returns true if the message belonged to the detector.
    bool handle(RankHandle& self, Rank src, int tag,
                std::span<const std::uint64_t> payload);

    [[nodiscard]] bool terminated(Rank rank) const { return terminated_[rank] != 0; }
    [[nodiscard]] bool all_terminated() const;
    /// Number of completed snapshot waves (for tests/diagnostics).
    [[nodiscard]] std::uint64_t waves() const noexcept { return waves_; }

private:
    void coordinator_check(RankHandle& self);

    Rank num_ranks_;
    int report_tag_;
    int verdict_tag_;
    std::vector<std::uint64_t> sent_;
    std::vector<std::uint64_t> received_;
    std::vector<std::uint64_t> last_reported_sent_;
    std::vector<std::uint64_t> last_reported_received_;
    // Bytes, not std::vector<bool>: the ranks' handlers set their own flags
    // concurrently, and packed bits of one word would race.
    std::vector<std::uint8_t> reported_once_;
    std::vector<std::uint8_t> terminated_;

    // Coordinator state (only rank 0 uses these).
    std::vector<std::uint64_t> latest_sent_;
    std::vector<std::uint64_t> latest_received_;
    std::vector<std::uint8_t> heard_from_;
    std::uint64_t waves_ = 0;
    bool have_previous_snapshot_ = false;
    std::uint64_t previous_total_sent_ = 0;
    std::uint64_t previous_total_received_ = 0;
    bool verdict_sent_ = false;
};

}  // namespace katric::net
