#include "net/simulator.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <limits>
#include <sstream>

#include "net/encoding.hpp"
#include "util/assert.hpp"
#include "util/bits.hpp"
#include "util/timer.hpp"

namespace katric::net {

namespace {

/// A delivery window fans out to the pool only when it carries at least this
/// many materialized payload words. Waking the helpers costs 0.3–1.2 ms a
/// round on a 2-vCPU host, so only windows heavy with handler work pay for
/// it. On the benchmark's social-global workload (seed 1, 2 vCPUs), about 2
/// of the 28 `global` windows a query reach 64 Ki words, yet they hold most
/// of the handler time: fanning them out took `global` delivery from 126 to
/// 80 host ms a query. The ledger replay's size-only sends carry no payload
/// and the 16 `reduce` windows a query are tiny, so both stay on the caller.
constexpr std::uint64_t kFanOutWindowWords = std::uint64_t{64} * 1024;

std::string oom_message(Rank rank, std::uint64_t words) {
    std::ostringstream out;
    out << "PE " << rank << " exceeded its memory budget with " << words
        << " buffered words";
    return out.str();
}
}  // namespace

OomError::OomError(Rank rank, std::uint64_t words)
    : std::runtime_error(oom_message(rank, words)), rank_(rank), words_(words) {}

FaultError::FaultError(NetError code, const std::string& detail)
    : std::runtime_error(detail), code_(code) {}

CancelledError::CancelledError()
    : std::runtime_error("query cancelled at a superstep boundary "
                         "(deadline expired or caller cancelled)") {}

Rank RankHandle::size() const noexcept { return sim_->num_ranks(); }

const NetworkConfig& RankHandle::config() const noexcept { return sim_->config_; }

void RankHandle::send(Rank dest, WordVec payload, int tag) {
    const auto words = static_cast<std::uint64_t>(payload.size());
    sim_->post(rank_, dest, tag, words, std::move(payload), /*sized=*/false);
}

void RankHandle::send_sized(Rank dest, std::uint64_t words, int tag) {
    sim_->post(rank_, dest, tag, words, WordVec{}, /*sized=*/true);
}

void RankHandle::charge_seconds(double seconds, std::uint64_t ops) {
    KATRIC_ASSERT(seconds >= 0.0);
    sim_->lanes_[rank_].clock += seconds;
    sim_->metrics_[rank_].compute_ops += ops;
}

double RankHandle::now() const noexcept { return sim_->lanes_[rank_].clock; }

void RankHandle::note_buffered_words(std::uint64_t current_words) {
    auto& m = sim_->metrics_[rank_];
    m.peak_buffered_words = std::max(m.peak_buffered_words, current_words);
    if (current_words > sim_->config_.memory_limit_words) {
        throw OomError(rank_, current_words);
    }
}

const RankMetrics& RankHandle::metrics() const noexcept { return sim_->metrics_[rank_]; }

Simulator::Simulator(Rank num_ranks, NetworkConfig config, RankPool& pool)
    : config_(config), num_ranks_(num_ranks), pool_(&pool) {
    KATRIC_ASSERT(num_ranks >= 1);
    lanes_.resize(num_ranks_);
    metrics_.assign(num_ranks_, RankMetrics{});
}

void Simulator::harden(const HardenOptions& options) {
    fault_ = std::make_unique<FaultState>();
    fault_->opts = options;
    if (options.stats == nullptr) { fault_->opts.stats = &fault_->stats; }
}

Simulator::InFlightFrame& Simulator::FaultState::frame(std::uint64_t frame_id) {
    KATRIC_ASSERT_MSG(frame_id >= first_id() && frame_id <= next_frame_id,
                      "frame " << frame_id << " is not in this phase's frame table");
    return frames[frame_id - first_id()];
}

bool Simulator::FaultState::frames_open() {
    while (first_open < frames.size() && frames[first_open].retired) { ++first_open; }
    return first_open < frames.size();
}

void Simulator::post(Rank src, Rank dest, int tag, std::uint64_t words, WordVec payload,
                     bool sized) {
    KATRIC_ASSERT(dest < num_ranks_);
    // Hardened sends are framed at the drain. Self-sends never cross the
    // network and keep the raw path; size-only sends carry no payload to
    // protect and do the same.
    const bool framed = fault_ != nullptr && fault_->opts.frame && src != dest && !sized;
    Lane& lane = lanes_[src];
    if (src != dest) {
        // Single-ported injection: the sender's port is busy for α + β·ℓ,
        // ℓ including the frame header — the hardening overhead is visible
        // in simulated time, as it would be on a real wire.
        const std::uint64_t wire = framed ? words + kFrameHeaderWords : words;
        lane.clock += config_.alpha + config_.beta * static_cast<double>(wire);
        metrics_[src].messages_sent += 1;
        metrics_[src].words_sent += wire;
    }
    // Staged payloads wait for the whole round before delivery frees them,
    // and a framed one is retained until its verified delivery: drop the
    // growth slack of push_back-built buffers so the round holds only the
    // words it sends.
    payload.shrink_to_fit();
    lane.outbox.push_back(
        Outgoing{dest, tag, framed, words, lane.clock, std::move(payload)});
}

void Simulator::enqueue(Rank src, Outgoing& out) {
    if (out.framed) {
        send_framed(src, out);
    } else {
        events_.push(Event{out.arrival, next_seq_++, src, out.dest, out.tag, out.words,
                           std::move(out.payload)});
    }
}

void Simulator::drain(Rank src) {
    auto& outbox = lanes_[src].outbox;
    for (Outgoing& out : outbox) { enqueue(src, out); }
    outbox.clear();
}

void Simulator::send_framed(Rank src, Outgoing& out) {
    FaultState& st = *fault_;
    const std::uint64_t id = ++st.next_frame_id;
    const FrameHeader header = frame_header(id, src, out.dest, out.tag, out.payload);
    st.frames.push_back(
        InFlightFrame{src, out.dest, out.tag, header, std::move(out.payload), 1});
    ++st.opts.stats->frames_sent;
    inject(id, out.arrival);
}

void Simulator::inject(std::uint64_t frame_id, double arrival) {
    FaultState& st = *fault_;
    const InFlightFrame& f = st.frame(frame_id);
    const std::uint64_t words = f.words();
    // A fault's own bytes: the contiguous frame, as the wire would carry it.
    const auto contiguous = [&] {
        return frame_payload(frame_id, static_cast<std::uint32_t>(f.src),
                             static_cast<std::uint32_t>(f.dest), f.tag, f.payload);
    };
    std::optional<WordVec> mutated;
    bool duplicate = false;
    if (st.opts.injector != nullptr) {
        fault::FaultStats& stats = *st.opts.stats;
        if (const auto d = st.opts.injector->decide(frame_id, f.attempts)) {
            switch (d->kind) {
                case fault::FaultKind::kDrop:
                    ++stats.injected_drop;
                    return;  // no event; the quiescence sweep recovers it
                case fault::FaultKind::kDuplicate:
                    ++stats.injected_duplicate;
                    duplicate = true;
                    break;
                case fault::FaultKind::kReorder:
                    // Jitter by 1..4 message slots: enough for later sends
                    // from the same rank to overtake this one (FIFO breaks),
                    // small enough to stay inside the phase.
                    ++stats.injected_reorder;
                    arrival += static_cast<double>(d->detail)
                               * (config_.alpha + config_.beta * static_cast<double>(words));
                    break;
                case fault::FaultKind::kDelay:
                    ++stats.injected_delay;
                    arrival += st.opts.injector->plan().delay_seconds;
                    break;
                case fault::FaultKind::kTruncate: {
                    ++stats.injected_truncate;
                    const auto cut = std::min<std::uint64_t>(d->detail, words);
                    mutated.emplace(contiguous());
                    mutated->resize(static_cast<std::size_t>(words - cut));
                    break;
                }
                case fault::FaultKind::kBitFlip: {
                    ++stats.injected_bitflip;
                    const std::uint64_t bit = d->detail % (words * 64);
                    mutated.emplace(contiguous());
                    (*mutated)[bit / 64] ^= 1ULL << (bit % 64);
                    break;
                }
                case fault::FaultKind::kStall:
                case fault::FaultKind::kCrash:
                    break;  // rank-level faults, never produced by decide()
            }
        }
    }
    if (mutated.has_value()) {
        const auto delivered_words = static_cast<std::uint64_t>(mutated->size());
        events_.push(Event{arrival, next_seq_++, f.src, f.dest, f.tag, delivered_words,
                           std::move(*mutated), frame_id});
        return;
    }
    // The first of a duplicated pair is delivered first (equal arrival,
    // lower sequence number) and retires the frame, so only the second needs
    // bytes of its own.
    events_.push(Event{arrival, next_seq_++, f.src, f.dest, f.tag, words, WordVec{},
                       frame_id, /*retained=*/true});
    if (duplicate) {
        events_.push(Event{arrival, next_seq_++, f.src, f.dest, f.tag, words, contiguous(),
                           frame_id});
    }
}

void Simulator::retransmit(std::uint64_t frame_id, NetError exhausted_as) {
    FaultState& st = *fault_;
    InFlightFrame& f = st.frame(frame_id);
    KATRIC_ASSERT(!f.retired);
    // attempts counts sends so far; the retry budget caps retransmissions.
    if (f.attempts > st.opts.max_retries) {
        std::ostringstream out;
        out << "frame " << frame_id << " (" << f.src << "→" << f.dest << ", " << f.words()
            << " words) unrecovered after " << f.attempts
            << " attempt(s); retry budget " << st.opts.max_retries << " exhausted";
        throw FaultError(exhausted_as, out.str());
    }
    ++f.attempts;
    ++st.opts.stats->retransmits;
    // Exponential backoff: the sender's port idles α·2^attempt before the
    // re-injection charge, so repeated failures slow the offered load instead
    // of hammering the link.
    const auto shift = std::min<std::uint32_t>(f.attempts, 16);
    Lane& lane = lanes_[f.src];
    lane.clock += config_.alpha * static_cast<double>(1ULL << shift);
    const std::uint64_t words = f.words();
    lane.clock += config_.alpha + config_.beta * static_cast<double>(words);
    metrics_[f.src].messages_sent += 1;
    metrics_[f.src].words_sent += words;
    inject(frame_id, lane.clock);
}

std::optional<std::span<const std::uint64_t>> Simulator::receive_hardened(Event& event) {
    FaultState& st = *fault_;
    InFlightFrame& f = st.frame(event.frame);
    const auto src = static_cast<std::uint32_t>(event.src);
    const auto dest = static_cast<std::uint32_t>(event.dest);
    FrameView view;
    if (event.retained) {
        // Header and payload verify in place, where the sender left them.
        KATRIC_ASSERT_MSG(!f.retired,
                          "retained frame " << event.frame << " retired before delivery");
        view = verify_frame(f.header, f.payload, src, dest, event.tag);
    } else {
        view = verify_frame(event.payload, src, dest, event.tag);
    }
    if (view.status != FrameStatus::kOk) {
        // Detected truncation/corruption: request a fresh copy immediately.
        // The lookup keys on the event's frame id — the network's own record
        // of the send — so a flipped header word cannot misroute recovery.
        // Only an injector mutates a frame, and it keeps windows to one event
        // on the caller: the retransmission's sender charge races no rank.
        KATRIC_ASSERT_MSG(st.opts.injector != nullptr,
                          "frame " << event.frame << " failed verification without an "
                                                     "injector");
        ++st.opts.stats->corrupt_detected;
        retransmit(event.frame, NetError::kCorrupt);
        return std::nullopt;
    }
    if (f.retired) {
        // Idempotent re-delivery: duplicates (injected, or a retransmission
        // racing a delayed original) are verified, then suppressed.
        ++st.opts.stats->duplicates_suppressed;
        return std::nullopt;
    }
    f.retired = true;
    // Moving the vector keeps its heap buffer, so `view` stays valid.
    if (event.retained) { event.payload = std::move(f.payload); }
    return view.payload;
}

template <typename Fn>
void Simulator::call_and_drain(Rank rank, const Fn& fn) {
    RankHandle handle(*this, rank);
    try {
        fn(handle);
    } catch (...) {
        drain(rank);
        throw;
    }
    drain(rank);
}

Simulator::WindowBounds Simulator::pop_window(bool single) {
    window_.clear();
    WindowBounds bounds{std::numeric_limits<double>::infinity(), 0, 0};
    const std::uint64_t stamp = ++windows_popped_;
    do {
        // priority_queue::top is const; the payload must be moved out, so
        // const_cast the pop-and-move — standard idiom for move-only
        // payloads in a priority queue.
        Delivery& delivery = window_.emplace_back();
        delivery.event = std::move(const_cast<Event&>(events_.top()));
        events_.pop();
        const Event& event = delivery.event;
        bounds.words += event.retained ? event.words : event.payload.size();
        Lane& lane = lanes_[event.dest];
        if (lane.seen_in != stamp) {
            // The rank's earliest pending event bounds everything it sends
            // in this window. A rank not seen yet has its earliest event at
            // or after the top, so its bound cannot undercut the horizon.
            lane.seen_in = stamp;
            ++bounds.ranks;
            double bound = std::max(lane.clock, event.arrival);
            if (event.src != event.dest) {
                bound += config_.alpha + config_.beta * static_cast<double>(event.words);
            }
            bounds.horizon = std::min(bounds.horizon, bound);
        }
    } while (!single && !events_.empty() && events_.top().arrival < bounds.horizon);
    return bounds;
}

void Simulator::receive(RankHandle& handle, Delivery& delivery,
                        const MessageHandler& on_message) {
    Event& event = delivery.event;
    const Rank dest = handle.rank();
    double& clock = lanes_[dest].clock;
    clock = std::max(clock, event.arrival);
    if (event.src != dest) {
        // Receiver port occupancy, mirroring the sender charge: the paper's
        // hotspot analysis ("p messages require time p(α+β)") charges the
        // receiving PE per message.
        clock += config_.alpha + config_.beta * static_cast<double>(event.words);
        metrics_[dest].messages_received += 1;
        metrics_[dest].words_received += event.words;
    }
    std::span<const std::uint64_t> payload = event.payload;
    if (event.frame != 0) {
        const auto verified = receive_hardened(event);
        if (!verified.has_value()) { return; }  // suppressed or re-sent
        payload = *verified;
    }
    if (on_message) { on_message(handle, event.src, event.tag, payload); }
    // Free the payload now, as a sequential run would: the window holds
    // every event until its last delivery.
    WordVec().swap(event.payload);
}

template <typename Fn>
void Simulator::run_window(const Fn& run, double horizon) {
    const auto size = static_cast<std::uint32_t>(window_.size());
    for (std::uint32_t i = 0; i < size; ++i) {
        lanes_[window_[i].event.dest].inbox.push_back(i);
    }
    std::atomic<std::uint32_t> first_failed{size};
    pool_->run(num_ranks_, [&](Rank r) {
        Lane& lane = lanes_[r];
        RankHandle handle(*this, r);
        for (const std::uint32_t i : lane.inbox) {
            // A sequential run would never reach units past a failure.
            if (i > first_failed.load(std::memory_order_relaxed)) { break; }
            Delivery& delivery = window_[i];
            delivery.ran = true;
            delivery.clock_before = lane.clock;
            delivery.metrics_before = metrics_[r];
            try {
                run(handle, delivery);
            } catch (...) {
                delivery.error = std::current_exception();
                delivery.outbox_end = lane.outbox.size();
                std::uint32_t seen = first_failed.load(std::memory_order_relaxed);
                while (i < seen && !first_failed.compare_exchange_weak(seen, i)) {}
                break;
            }
            delivery.outbox_end = lane.outbox.size();
        }
    });
    const std::uint32_t failed = first_failed.load();
    // Merge in unit order: each unit's staged sends get the sequence numbers
    // and frame ids a sequential run would have handed them.
    for (std::uint32_t i = 0; i < size && i <= failed; ++i) {
        const Delivery& delivery = window_[i];
        const Rank dest = delivery.event.dest;
        Lane& lane = lanes_[dest];
        for (; lane.merged < delivery.outbox_end; ++lane.merged) {
            Outgoing& out = lane.outbox[lane.merged];
            KATRIC_ASSERT_MSG(out.arrival >= horizon,
                              "send from rank " << dest << " arrives at " << out.arrival
                                                << ", before its window's horizon "
                                                << horizon);
            enqueue(dest, out);
        }
    }
    // Undo what ran past the failure, latest first, so each rank ends at its
    // state before its first such unit.
    for (std::uint32_t i = size; i-- > failed + 1;) {
        const Delivery& delivery = window_[i];
        if (!delivery.ran) { continue; }
        lanes_[delivery.event.dest].clock = delivery.clock_before;
        metrics_[delivery.event.dest] = delivery.metrics_before;
    }
    for (const Delivery& delivery : window_) {
        Lane& lane = lanes_[delivery.event.dest];
        lane.outbox.clear();
        lane.inbox.clear();
        lane.merged = 0;
    }
    if (failed < size) { std::rethrow_exception(window_[failed].error); }
}

Simulator::DeliveryStats Simulator::deliver_until_quiescent(
    const MessageHandler& on_message, const RankFn& on_idle) {
    DeliveryStats stats;
    // An armed injector retransmits from inside a delivery, charging the
    // sender's clock: no window past one event is safe then.
    const bool single = fault_ != nullptr && fault_->opts.injector != nullptr;
    while (true) {
        while (!events_.empty()) {
            const WindowBounds window = pop_window(single);
            ++stats.windows;
            // Fan out only a window with work for two ranks or more and
            // enough payload to pay for waking the helpers, never an
            // injector's one-event window: a retransmission charges the
            // sender's clock, which another thread may be running.
            if (!single && window.ranks > 1 && window.words >= kFanOutWindowWords
                && pool_->fans_out(num_ranks_)) {
                ++stats.windows_fanned;
                run_window(
                    [&](RankHandle& handle, Delivery& delivery) {
                        receive(handle, delivery, on_message);
                    },
                    window.horizon);
                continue;
            }
            for (Delivery& delivery : window_) {
                call_and_drain(delivery.event.dest, [&](RankHandle& handle) {
                    receive(handle, delivery, on_message);
                });
            }
        }
        if (fault_ != nullptr && fault_->frames_open()) {
            // The queue drained but frames are unaccounted for: they were
            // dropped in flight. Re-send each (deterministic id order) and
            // keep delivering; budget exhaustion surfaces as kTimeout — a
            // loss, unlike corruption, is only observable as absence.
            const FaultState& st = *fault_;
            for (std::size_t i = st.first_open; i < st.frames.size(); ++i) {
                if (!st.frames[i].retired) {
                    retransmit(st.first_id() + i, NetError::kTimeout);
                }
            }
            continue;
        }
        if (!on_idle) { break; }
        const WallTimer idle_timer;
        for (Rank r = 0; r < num_ranks_; ++r) { call_and_drain(r, on_idle); }
        stats.idle_seconds += idle_timer.elapsed_seconds();
        // A frame sent during the idle round may itself have been dropped:
        // the event queue is then empty but the frame is unaccounted for.
        // Loop back so the lost-frame sweep above runs; only true quiescence
        // — no events AND no in-flight frames — ends the phase.
        if (events_.empty() && (fault_ == nullptr || !fault_->frames_open())) { break; }
    }
    return stats;
}

void Simulator::run_start_round(const RankFn& start) {
    if (!pool_->fans_out(num_ranks_)) {
        for (Rank r = 0; r < num_ranks_; ++r) { call_and_drain(r, start); }
        return;
    }
    // One unit per rank, in rank order: the outboxes then drain as the
    // sequential round would drain them, and no horizon applies.
    window_.clear();
    window_.resize(num_ranks_);
    for (Rank r = 0; r < num_ranks_; ++r) { window_[r].event.dest = r; }
    run_window([&](RankHandle& handle, Delivery&) { start(handle); },
               -std::numeric_limits<double>::infinity());
}

double Simulator::run_phase(const std::string& name, const RankFn& start,
                            const MessageHandler& on_message, const RankFn& on_idle) {
    const RankPool::SuperstepScope in_superstep;
    const double phase_start = barrier_time_;
    for (Lane& lane : lanes_) { lane.clock = phase_start; }
    if (fault_ != nullptr) {
        FaultState& st = *fault_;
        // Cooperative cancellation and rank-level faults land at superstep
        // boundaries: a superstep either runs to completion or not at all.
        if (st.opts.cancel != nullptr && st.opts.cancel->expired()) {
            throw CancelledError();
        }
        if (st.opts.injector != nullptr && st.opts.injector->has_rank_faults()) {
            for (Rank r = 0; r < num_ranks_; ++r) {
                if (st.opts.injector->crashed(static_cast<std::uint32_t>(r),
                                              st.superstep)) {
                    std::ostringstream out;
                    out << "rank " << r << " crashed before superstep " << st.superstep
                        << " ('" << name << "')";
                    throw FaultError(NetError::kRankLost, out.str());
                }
                if (st.opts.injector->stalls(static_cast<std::uint32_t>(r),
                                             st.superstep)) {
                    ++st.opts.stats->injected_stall;
                    lanes_[r].clock += st.opts.injector->plan().stall_seconds;
                }
            }
        }
    }
    std::vector<RankMetrics> metrics_before;
    if (record_phase_details_) { metrics_before = metrics_; }
    WallTimer host;
    if (start) { run_start_round(start); }
    const double host_start = host.elapsed_seconds();
    host.restart();
    const DeliveryStats delivery = deliver_until_quiescent(on_message, on_idle);
    const double host_deliver = host.elapsed_seconds() - delivery.idle_seconds;

    double makespan = phase_start;
    for (const Lane& lane : lanes_) { makespan = std::max(makespan, lane.clock); }
    if (num_ranks_ > 1) {
        makespan += config_.alpha * static_cast<double>(katric::ceil_log2(num_ranks_));
    }
    barrier_time_ = makespan;
    PhaseRecord record;
    record.name = name;
    record.start_time = phase_start;
    record.end_time = barrier_time_;
    record.host_start_seconds = host_start;
    record.host_deliver_seconds = host_deliver;
    record.host_idle_seconds = delivery.idle_seconds;
    record.host_windows = delivery.windows;
    record.host_windows_fanned = delivery.windows_fanned;
    if (record_phase_details_) {
        record.rank_busy_end.reserve(num_ranks_);
        for (const Lane& lane : lanes_) { record.rank_busy_end.push_back(lane.clock); }
        record.rank_delta.resize(static_cast<std::size_t>(num_ranks_));
        for (Rank r = 0; r < num_ranks_; ++r) {
            const RankMetrics& before = metrics_before[r];
            const RankMetrics& after = metrics_[r];
            RankMetrics& delta = record.rank_delta[r];
            delta.messages_sent = after.messages_sent - before.messages_sent;
            delta.messages_received = after.messages_received - before.messages_received;
            delta.words_sent = after.words_sent - before.words_sent;
            delta.words_received = after.words_received - before.words_received;
            delta.compute_ops = after.compute_ops - before.compute_ops;
            // Not a monotone counter; carry the phase-end high-water mark.
            delta.peak_buffered_words = after.peak_buffered_words;
        }
    }
    phases_.push_back(std::move(record));
    if (fault_ != nullptr) {
        FaultState& st = *fault_;
        KATRIC_ASSERT_MSG(!st.frames_open(),
                          "hardened frame(s) unresolved past phase quiescence");
        ++st.superstep;
        // Frame ids are consecutive and the quiescence sweep guarantees
        // every frame resolved within its phase, so the table can reset.
        st.frames.clear();
        st.first_open = 0;
        if (st.opts.phase_timeout > 0.0
            && barrier_time_ - phase_start > st.opts.phase_timeout) {
            std::ostringstream out;
            out << "superstep '" << name << "' took " << (barrier_time_ - phase_start)
                << "s simulated, over the --phase-timeout of " << st.opts.phase_timeout
                << "s";
            throw FaultError(NetError::kTimeout, out.str());
        }
    }
    return barrier_time_ - phase_start;
}

}  // namespace katric::net
