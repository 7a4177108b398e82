#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace katric::fault {

/// The fault classes the injector can apply to the simulated machine. The
/// first six act on individual physical messages; the last two act on a rank
/// at a superstep boundary (the MPI failure modes Galois' libdist and the
/// MPI-settings literature treat as part of the runtime contract).
enum class FaultKind : std::uint8_t {
    kDrop,      ///< message silently lost in the network
    kDuplicate, ///< message delivered twice
    kReorder,   ///< small arrival jitter — breaks per-channel FIFO
    kDelay,     ///< large arrival latency (straggler link)
    kTruncate,  ///< tail words cut off in flight
    kBitFlip,   ///< one payload/header bit inverted in flight
    kStall,     ///< a rank pauses for stall_seconds at a superstep
    kCrash,     ///< a rank stops participating from a superstep on
};

[[nodiscard]] std::string fault_kind_name(FaultKind kind);

/// What a counting run does when the hardened message layer detects a fault
/// it cannot transparently absorb.
enum class RecoveryPolicy : std::uint8_t {
    /// No retransmission budget: the first detected fault surfaces as a
    /// typed NetError. The cheapest policy, and the one that localizes an
    /// injected fault most precisely in tests.
    kFailFast,
    /// Bounded retry-with-backoff (Config::max_retries attempts per frame)
    /// plus idempotent re-delivery: transient faults are absorbed and the
    /// result is bit-exact; exhaustion surfaces as a typed NetError.
    kRetry,
    /// kRetry, but when an exact count query still fails, fall back to the
    /// approximate (CETRIC-AMQ) counter instead of failing the request —
    /// the report is explicitly marked degraded, never a silent estimate.
    kDegrade,
};

[[nodiscard]] std::string recovery_policy_name(RecoveryPolicy policy);
/// Inverse of recovery_policy_name ("fail-fast" | "retry" | "degrade");
/// empty optional when no policy has that name.
[[nodiscard]] std::optional<RecoveryPolicy> parse_recovery_policy(
    const std::string& name);

/// A rank-targeted fault scheduled at a superstep boundary (kCrash/kStall).
struct RankFault {
    std::uint32_t rank = 0;
    std::uint32_t superstep = 0;  ///< 0-based global superstep index

    friend bool operator==(const RankFault&, const RankFault&) = default;
};

/// A deterministic, seed-reproducible fault schedule: per-message fault
/// probabilities plus rank-targeted crash/stall events, parsed from the
/// --fault-spec grammar
///
///   clause(;clause)* with clause one of
///     seed=N            RNG seed (decisions hash on (seed, frame, attempt))
///     drop=P  dup=P  reorder=P  delay=P  truncate=P  bitflip=P
///                       per-message probabilities in [0,1]
///     delay-secs=S      latency added by a delay fault (simulated seconds)
///     stall-secs=S      pause length of a stall fault (simulated seconds)
///     crash=R@S(,R@S)*  rank R stops participating from superstep S on
///     stall=R@S(,R@S)*  rank R pauses stall-secs at superstep S
///
/// e.g. "seed=42;drop=0.05;bitflip=0.01;crash=2@7". An empty spec is an
/// empty plan (no faults). Identical specs produce identical schedules and
/// therefore identical outcomes — the reproducibility contract the fault
/// property tests pin down.
struct FaultPlan {
    std::uint64_t seed = 1;
    double drop = 0.0;
    double duplicate = 0.0;
    double reorder = 0.0;
    double delay = 0.0;
    double truncate = 0.0;
    double bitflip = 0.0;
    /// Latency a kDelay fault adds to a message's arrival.
    double delay_seconds = 1e-3;
    /// Clock pause a kStall fault applies to its rank.
    double stall_seconds = 1e-2;
    std::vector<RankFault> crashes;
    std::vector<RankFault> stalls;

    friend bool operator==(const FaultPlan&, const FaultPlan&) = default;

    /// True when the plan can never inject anything (all probabilities zero,
    /// no rank faults) — the injector still runs, at the noise floor.
    [[nodiscard]] bool empty() const noexcept;

    /// Serializes back to the grammar; parse(to_spec()) == *this.
    [[nodiscard]] std::string to_spec() const;

    /// Parses the grammar; throws katric::assertion_error naming the
    /// offending clause. Use try_parse for the non-throwing form.
    [[nodiscard]] static FaultPlan parse(const std::string& spec);
    /// Non-throwing parse: nullopt with `error` set (when non-null) to a
    /// description of the offending clause.
    [[nodiscard]] static std::optional<FaultPlan> try_parse(const std::string& spec,
                                                           std::string* error = nullptr);
};

/// Monotone counters of what the injector did and what the hardened layer
/// absorbed in one run. Mirrored into obs::MetricsRegistry ("fault.*") when
/// metrics are on, and carried on the Report so tests can assert recovery
/// actually exercised the retry path.
struct FaultStats {
    std::uint64_t injected_drop = 0;
    std::uint64_t injected_duplicate = 0;
    std::uint64_t injected_reorder = 0;
    std::uint64_t injected_delay = 0;
    std::uint64_t injected_truncate = 0;
    std::uint64_t injected_bitflip = 0;
    std::uint64_t injected_stall = 0;
    std::uint64_t frames_sent = 0;          ///< hardened physical messages
    std::uint64_t corrupt_detected = 0;     ///< checksum/length failures caught
    std::uint64_t duplicates_suppressed = 0;///< idempotent re-delivery hits
    std::uint64_t retransmits = 0;          ///< frames re-sent after loss/corruption

    [[nodiscard]] std::uint64_t injected_total() const noexcept {
        return injected_drop + injected_duplicate + injected_reorder + injected_delay
               + injected_truncate + injected_bitflip + injected_stall;
    }

    friend bool operator==(const FaultStats&, const FaultStats&) = default;
};

/// Cooperative cancellation handle checked at superstep boundaries: a query
/// deadline (host wall clock) and/or an explicit cancel flag. Shared between
/// the submitting thread and the simulator; expired() is cheap enough to
/// call once per superstep.
class CancelToken {
public:
    CancelToken() = default;

    /// Arms the token to expire `seconds` of host wall clock from now. A
    /// deadline the clock cannot reach (+inf, or a century away) never
    /// passes: the token stays unarmed instead of wrapping into the past.
    void set_deadline_in(double seconds) {
        using Clock = std::chrono::steady_clock;
        const auto now = Clock::now();
        const std::chrono::duration<double> range = Clock::time_point::max() - now;
        if (!(seconds < range.count() / 2)) { return; }
        deadline_ = now + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(seconds));
        armed_ = true;
    }

    void cancel() noexcept { cancelled_.store(true, std::memory_order_relaxed); }

    /// Links a parent token: this token also expires when the parent does
    /// (a query-local deadline chained onto a caller's cancel handle). The
    /// parent must outlive this token.
    void chain(const CancelToken* parent) noexcept { parent_ = parent; }

    [[nodiscard]] bool expired() const {
        if (cancelled_.load(std::memory_order_relaxed)) { return true; }
        if (parent_ != nullptr && parent_->expired()) { return true; }
        return armed_ && std::chrono::steady_clock::now() >= deadline_;
    }

private:
    std::atomic<bool> cancelled_{false};
    bool armed_ = false;
    std::chrono::steady_clock::time_point deadline_{};
    const CancelToken* parent_ = nullptr;
};

}  // namespace katric::fault
