#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <queue>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "error.hpp"
#include "fault/injector.hpp"
#include "graph/types.hpp"
#include "net/encoding.hpp"
#include "net/metrics.hpp"
#include "net/network_config.hpp"
#include "net/rank_pool.hpp"

namespace katric::net {

using Rank = graph::Rank;
using WordVec = std::vector<std::uint64_t>;

/// Raised when a PE's buffered communication data exceeds the configured
/// per-PE memory budget — the simulated equivalent of the out-of-memory
/// crashes the paper reports for TriC's static single-shot buffering.
class OomError : public std::runtime_error {
public:
    OomError(Rank rank, std::uint64_t words);
    [[nodiscard]] Rank rank() const noexcept { return rank_; }
    [[nodiscard]] std::uint64_t words() const noexcept { return words_; }

private:
    Rank rank_;
    std::uint64_t words_;
};

/// Raised by the hardened message layer when detection/recovery cannot
/// transparently absorb a fault: checksum failures past the retransmission
/// budget (kCorrupt), lost messages or a wedged superstep (kTimeout), a rank
/// that stopped participating (kRankLost). Follows the OomError pattern —
/// thrown out of the counting run, caught at the Engine boundary, reported
/// as a typed Error in Domain::kNet. Never results in a divergent count.
class FaultError : public std::runtime_error {
public:
    FaultError(NetError code, const std::string& detail);
    [[nodiscard]] NetError code() const noexcept { return code_; }

private:
    NetError code_;
};

/// Raised at a superstep boundary when the query's CancelToken has expired
/// (deadline passed or explicit cancel). Cooperative: a superstep always
/// completes; cancellation lands between supersteps.
class CancelledError : public std::runtime_error {
public:
    CancelledError();
};

/// Arms the hardened message layer on a Simulator. All pointers are borrowed
/// and must outlive the run; each may be null independently (e.g. harden
/// framing with no injector = checksum/dedup machinery only, the overhead
/// bench's hardened mode).
struct HardenOptions {
    /// Frame/checksum/retransmit the payload path. Off = only the superstep
    /// boundary checks (cancel token, phase timeout) are armed — what a
    /// deadline without --harden wants: zero cost on the message path.
    bool frame = true;
    /// Deterministic fault oracle; null = no injection.
    const fault::FaultInjector* injector = nullptr;
    /// Counter sink; null = counted into one the Simulator owns.
    fault::FaultStats* stats = nullptr;
    /// Cooperative cancellation, checked at each superstep boundary.
    const fault::CancelToken* cancel = nullptr;
    /// Retransmission budget per frame; 0 = fail-fast on first detection.
    std::uint32_t max_retries = 3;
    /// Simulated-seconds ceiling per superstep; 0 = no timeout. A phase
    /// whose makespan exceeds it throws FaultError(kTimeout) instead of
    /// silently absorbing a wedged link into the total.
    double phase_timeout = 0.0;
};

class Simulator;

/// Per-PE facade handed to algorithm callbacks: the only way algorithm code
/// can touch the machine. Mirrors the discipline of an MPI rank — a PE sees
/// its own rank, the PE count, and explicit message passing; nothing else.
class RankHandle {
public:
    RankHandle(Simulator& sim, Rank rank) noexcept : sim_(&sim), rank_(rank) {}

    [[nodiscard]] Rank rank() const noexcept { return rank_; }
    [[nodiscard]] Rank size() const noexcept;
    [[nodiscard]] const NetworkConfig& config() const noexcept;

    /// Non-blocking send: charges the sender α + β·ℓ (single-ported
    /// injection) and schedules delivery. Self-sends are delivered through
    /// the same path (with zero network charge) so algorithms need no
    /// special case.
    void send(Rank dest, WordVec payload, int tag = 0);

    /// Size-only send: identical timing, ordering, and metric charges to
    /// send()ing a `words`-long payload, but no payload is materialized —
    /// the delivered span is empty. O(1) instead of O(ℓ) on both ends; the
    /// basis of the Engine's preprocessing-cost replay
    /// (core::charge_preprocessing), which needs the machine charges of an
    /// exchange without its data.
    void send_sized(Rank dest, std::uint64_t words, int tag = 0);

    /// Advances this PE's clock by ops elementary operations. Inline (below
    /// Simulator): kernels call it once per probe or intersection.
    void charge_ops(std::uint64_t ops);
    /// Advances this PE's clock by an explicit amount of seconds. `ops` is
    /// the elementary work those seconds stand for (e.g. intersections split
    /// across hybrid threads): it is counted in RankMetrics::compute_ops,
    /// which stays independent of the time model.
    void charge_seconds(double seconds, std::uint64_t ops = 0);

    /// This PE's simulated clock.
    [[nodiscard]] double now() const noexcept;

    /// Reports the current amount of buffered outgoing data; updates the
    /// high-water mark and enforces the per-PE memory budget (throws
    /// OomError past the limit).
    void note_buffered_words(std::uint64_t current_words);

    [[nodiscard]] const RankMetrics& metrics() const noexcept;

private:
    Simulator* sim_;
    Rank rank_;
};

/// Deterministic discrete-event simulator of a p-PE message-passing machine.
///
/// Execution model: a *phase* (superstep) runs every rank's start function,
/// then delivers messages in global arrival order until quiescence —
/// handlers may send further messages (aggregation proxies, replies). An
/// optional idle hook runs when the event queue drains, so message queues
/// can flush residual buffers; the phase ends when an idle round generates
/// no new traffic. A closing barrier lifts all clocks to the maximum plus
/// α·⌈log₂ p⌉.
///
/// Host parallelism (RankPool) never changes a result. A send charges the
/// sender's clock and metrics at once and is staged in that rank's outbox;
/// staged sends drain into the event queue in the order one thread running
/// everything in sequence would have sent them, which hands out sequence
/// numbers, hardened frame ids and injector decisions unchanged. So every
/// start function and every handler may touch only its own rank's state —
/// its clock, metrics and outbox through the RankHandle, and whatever
/// per-rank algorithm state it owns.
///
/// - Start rounds run every rank in parallel; the outboxes drain in (rank,
///   local order).
/// - Delivery runs in safe time windows, the conservative rule of parallel
///   discrete-event simulation. Delivering event e on rank r first lifts r's
///   clock to e's arrival and adds the receive charge, so nothing r sends
///   from then on arrives before that bound. The horizon H is the least
///   bound over the ranks' earliest pending events; every pending event
///   that arrives before H forms one window (the earliest event always
///   does). No event sent inside the window can precede any of them, so
///   each rank delivers its share of the window in order, independently of
///   the others, and the staged sends drain afterwards in the order of the
///   events that produced them. A window fans out only when it holds
///   events for two ranks or more and enough payload to pay for waking the
///   helpers; a machine with an armed FaultInjector delivers one event at a
///   time, on the caller, since a retransmission charges another rank's
///   clock. A hardened frame is verified by the rank that receives it,
///   which retires the frame's own entry of the phase's frame table.
/// - Idle rounds run sequentially, each rank's sends drained after its call.
///
/// An exception thrown by a start function or handler surfaces as the one a
/// sequential run would have raised first (lowest rank, lowest event); the
/// work that run would never have reached is undone — clocks and metrics
/// restored, staged sends dropped — so the machine's counters equal the
/// sequential run's. Both rounds share this policy (run_window): a start
/// round fans out as a window of one unit per rank.
///
/// Determinism: ties in arrival time break by send sequence number, and
/// per-channel FIFO follows from per-sender clock monotonicity. The result
/// never depends on the number of host threads.
class Simulator {
public:
    using MessageHandler =
        std::function<void(RankHandle&, Rank src, int tag, std::span<const std::uint64_t>)>;
    using RankFn = std::function<void(RankHandle&)>;

    /// `pool` runs the start rounds and delivery windows; tests hand in
    /// their own to pin the host thread count.
    Simulator(Rank num_ranks, NetworkConfig config, RankPool& pool = RankPool::shared());

    Simulator(const Simulator&) = delete;
    Simulator& operator=(const Simulator&) = delete;

    /// Runs one superstep; returns its duration in simulated seconds.
    double run_phase(const std::string& name, const RankFn& start,
                     const MessageHandler& on_message, const RankFn& on_idle = {});

    [[nodiscard]] Rank num_ranks() const noexcept { return num_ranks_; }
    [[nodiscard]] const NetworkConfig& config() const noexcept { return config_; }
    /// Global simulated time (the last barrier).
    [[nodiscard]] double time() const noexcept { return barrier_time_; }

    [[nodiscard]] std::span<const RankMetrics> rank_metrics() const noexcept {
        return metrics_;
    }
    [[nodiscard]] std::span<const PhaseRecord> phases() const noexcept { return phases_; }
    /// Events scheduled so far, i.e. the next send sequence number.
    [[nodiscard]] std::uint64_t events_scheduled() const noexcept { return next_seq_; }

    /// When enabled, each PhaseRecord additionally captures per-rank busy
    /// clocks and per-rank metric deltas for that superstep (the raw data
    /// behind per-rank trace lanes and per-phase comm breakdowns). Off by
    /// default: the snapshots cost O(p) copies per superstep.
    void record_phase_details(bool enabled) { record_phase_details_ = enabled; }
    [[nodiscard]] bool phase_details_recorded() const noexcept {
        return record_phase_details_;
    }

    /// Turns on the hardened message layer: every cross-rank payload send is
    /// framed with [frame_id, length, checksum] (encoding.hpp), verified and
    /// deduplicated at delivery, retransmitted with exponential backoff on
    /// detected loss or corruption, and every superstep boundary checks the
    /// injector's crash/stall schedule, the cancel token, and the phase
    /// timeout. Off (the default) the simulator is bit-identical to the
    /// unhardened build: the only added cost on every hot path is one null
    /// check on fault_ — the same discipline obs uses.
    void harden(const HardenOptions& options);
    [[nodiscard]] bool hardened() const noexcept { return fault_ != nullptr; }

private:
    friend class RankHandle;

    struct Event {
        double arrival;
        std::uint64_t seq;
        Rank src;
        Rank dest;
        int tag;
        /// Charged message length in words. Equals payload.size() for real
        /// sends; size-only sends carry the length with an empty payload.
        std::uint64_t words;
        WordVec payload;
        /// Hardened-path frame id; 0 = unframed (self-send, size-only send,
        /// or hardening off). The network's own knowledge of which send this
        /// is — corruption mutates the payload buffer, never this.
        std::uint64_t frame = 0;
        /// Clean hardened delivery: the bytes are the frame table entry's
        /// header and the sender's own payload buffer, looked up by
        /// `frame`; `payload` stays empty. Only a fault that needs its own
        /// bytes (duplicate, truncate, bit flip) builds a contiguous frame.
        bool retained = false;
    };
    struct EventLater {
        bool operator()(const Event& a, const Event& b) const noexcept {
            return a.arrival != b.arrival ? a.arrival > b.arrival : a.seq > b.seq;
        }
    };

    /// A send already charged to its sender, waiting for the drain that
    /// gives it its place in the global order.
    struct Outgoing {
        Rank dest;
        int tag;
        bool framed;           ///< takes the hardened path at the drain
        std::uint64_t words;   ///< payload words (size-only sends: the length)
        double arrival;
        WordVec payload;
    };

    /// What one rank owns while its start function or handlers run, on its
    /// own cache lines: charge_ops writes the clock on every intersection.
    struct alignas(64) Lane {
        double clock = 0.0;
        std::vector<Outgoing> outbox;
        /// Fanned-out round: this rank's units (indices into window_, in
        /// key order) and how much of its outbox the merge has drained.
        std::vector<std::uint32_t> inbox;
        std::size_t merged = 0;
        /// The last window whose horizon this rank's bound went into.
        std::uint64_t seen_in = 0;
    };

    /// One event of a delivery window, and what delivering it left behind.
    /// A fanned-out start round holds one per rank, with only `event.dest`
    /// set.
    struct Delivery {
        Event event;
        /// Fanned-out rounds only, written by the running thread: the
        /// rank's outbox size after this unit, and the rank's clock and
        /// metrics before it, should an earlier unit of the round throw.
        bool ran = false;
        std::size_t outbox_end = 0;
        double clock_before = 0.0;
        RankMetrics metrics_before;
        std::exception_ptr error;
    };

    /// The one send path: charges the sender (α + β·ℓ, ℓ including the frame
    /// header when the send will be framed) and stages it in its outbox.
    void post(Rank src, Rank dest, int tag, std::uint64_t words, WordVec payload,
              bool sized);
    /// Gives one staged send its place in the event queue.
    void enqueue(Rank src, Outgoing& out);
    /// Moves rank `src`'s staged sends into the event queue, in order.
    void drain(Rank src);
    /// Runs every rank's start function (on the pool, as one unit per rank,
    /// when it fans out) and drains the outboxes in rank order.
    void run_start_round(const RankFn& start);
    /// Calls fn(handle of `rank`) and drains what it staged — also when it
    /// throws, so the machine holds exactly what a direct send would have.
    template <typename Fn>
    void call_and_drain(Rank rank, const Fn& fn);
    /// Host-side counts of one delivery, for the PhaseRecord.
    struct DeliveryStats {
        double idle_seconds = 0.0;
        std::uint64_t windows = 0;
        std::uint64_t windows_fanned = 0;
    };
    DeliveryStats deliver_until_quiescent(const MessageHandler& on_message,
                                          const RankFn& on_idle);
    /// The window pop_window left in window_: no event sent while
    /// delivering it arrives before `horizon`; `words` is its materialized
    /// payload and `ranks` the number of ranks it delivers to.
    struct WindowBounds {
        double horizon;
        std::uint64_t words;
        Rank ranks;
    };
    /// Pops the next delivery window into window_ (one event when `single`).
    WindowBounds pop_window(bool single);
    /// Receive side of one delivery on its rank: clock, receive charge,
    /// hardened verification, then the handler.
    void receive(RankHandle& handle, Delivery& delivery,
                 const MessageHandler& on_message);
    /// Runs window_ on the pool: each rank calls run(handle, unit) on its
    /// units in key order. The staged sends then merge in unit order, and
    /// each must arrive at or after `horizon`. Should units throw, the
    /// lowest one's exception surfaces, its sends and those of earlier units
    /// merge, and the units past it, which a sequential run would never have
    /// reached, are undone: clocks and metrics restored, sends dropped.
    template <typename Fn>
    void run_window(const Fn& run, double horizon);

    /// A hardened in-flight frame, retained until its verified delivery so
    /// loss and corruption can be repaired by retransmission: the frame
    /// header beside the sender's payload, which was moved in, not copied.
    struct InFlightFrame {
        Rank src;
        Rank dest;
        int tag;
        FrameHeader header;      ///< [frame id, payload length, checksum]
        WordVec payload;         ///< the sender's pristine payload
        std::uint32_t attempts;  ///< delivery attempts so far (1 = first send)
        /// Delivered and verified; a later copy is a duplicate. Written only
        /// by the rank that receives the frame.
        bool retired = false;

        /// Length of the frame on the wire, header included.
        [[nodiscard]] std::uint64_t words() const noexcept {
            return kFrameHeaderWords + payload.size();
        }
    };

    /// All hardened-path state, allocated only when harden() is called so
    /// the disabled path stays a single null check.
    struct FaultState {
        HardenOptions opts;
        /// Where opts.stats points when the caller passed none.
        fault::FaultStats stats;
        std::uint64_t next_frame_id = 0;
        std::uint32_t superstep = 0;
        /// The frame table: this phase's frames, in id order. Ids are
        /// consecutive and every frame resolves inside its phase, so the
        /// table holds ids first_id() to next_frame_id, and the barrier
        /// clears it.
        std::vector<InFlightFrame> frames;
        /// Every entry before this one is retired.
        std::size_t first_open = 0;

        [[nodiscard]] std::uint64_t first_id() const noexcept {
            return next_frame_id - frames.size() + 1;
        }
        /// The table's entry for `frame_id`.
        InFlightFrame& frame(std::uint64_t frame_id);
        /// Whether a frame of the phase is still unretired (lost, or its
        /// event still pending). Moves first_open past the retired entries.
        bool frames_open();
    };

    /// Frames a drained send, retains it for retransmission and injects it.
    void send_framed(Rank src, Outgoing& out);
    /// Pushes an already charged frame's event(s) through the injector: 0
    /// (drop), 1, or 2 (duplicate) events, possibly with a mutated
    /// contiguous frame (truncate/bitflip) or a perturbed arrival
    /// (reorder/delay).
    /// Used by both the first send and retransmissions.
    void inject(std::uint64_t frame_id, double arrival);
    /// Re-sends a frame after detected loss/corruption, charging the sender
    /// the backoff α·2^attempt on top of the normal injection cost. Throws
    /// FaultError when the retry budget is exhausted.
    void retransmit(std::uint64_t frame_id, NetError exhausted_as);
    /// Verified-delivery bookkeeping for one hardened event, on the rank
    /// that receives it: it writes only its own frame's entry. Returns the
    /// payload span to hand the handler, or nullopt when the event must be
    /// suppressed (duplicate) — retransmission on corruption happens inside.
    /// A verified retained event takes over the sender's payload buffer, so
    /// the span outlives the frame's retirement.
    std::optional<std::span<const std::uint64_t>> receive_hardened(Event& event);

    NetworkConfig config_;
    Rank num_ranks_;
    RankPool* pool_;
    std::vector<Lane> lanes_;
    /// alignas(64) per element: each rank's counters on their own line.
    std::vector<RankMetrics> metrics_;
    std::priority_queue<Event, std::vector<Event>, EventLater> events_;
    std::vector<Delivery> window_;
    std::uint64_t windows_popped_ = 0;
    std::uint64_t next_seq_ = 0;
    double barrier_time_ = 0.0;
    std::vector<PhaseRecord> phases_;
    bool record_phase_details_ = false;
    std::unique_ptr<FaultState> fault_;
};

inline void RankHandle::charge_ops(std::uint64_t ops) {
    sim_->lanes_[rank_].clock += static_cast<double>(ops) * sim_->config_.compute_op;
    sim_->metrics_[rank_].compute_ops += ops;
}

}  // namespace katric::net
