#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "net/indirection.hpp"
#include "net/simulator.hpp"

namespace katric::net {

/// The dynamically buffered message queue of Section IV-A — the paper's
/// "asynchronous sparse all-to-all" building block, combined with the
/// indirect routing of Section IV-B through the Router it owns. One queue
/// serves the whole machine: each PE posts, flushes and handles in a lane
/// of its own.
///
/// Each PE keeps a flat table of dynamic buffers B_j, one per first hop j
/// (p entries, allocated at the first post; only ≤ ~2√p are ever used with
/// the grid router). post() appends a logical record; once the total
/// buffered volume B = Σ|B_j| exceeds the PE's threshold δ, all non-empty
/// buffers are handed to the runtime as non-blocking sends, in the order
/// flush() documents (double buffering: the algorithm keeps filling fresh
/// buffers while the old ones are in flight — in the simulator this shows
/// up as the sender being charged injection time only). Setting δ ∈
/// O(|E_i|) bounds per-PE memory by the local input size; the high-water
/// mark is tracked through RankHandle::note_buffered_words, which enforces
/// the configured memory budget.
///
/// Wire format of a physical payload: a sequence of records
///   [final_dest, record_len, word₀ … word_{len−1}]
/// (epoch-stamped queues insert the epoch between the header and the body:
/// [final_dest, record_len, epoch, word₀ …]). Records whose final_dest is
/// not the receiving PE are aggregation traffic for a proxy, which re-posts
/// them into their own lane (second hop).
class MessageQueue {
public:
    /// thresholds[r] = δ of rank r; the machine has thresholds.size() ranks.
    /// With epoch_stamped = true every record carries the queue's current
    /// epoch in its header (streaming batch attribution, see begin_epoch).
    MessageQueue(std::unique_ptr<const Router> router,
                 const std::vector<std::uint64_t>& thresholds, int tag,
                 bool epoch_stamped = false);

    /// Enqueues one logical record for final_dest; flushes if B > δ.
    void post(RankHandle& self, Rank final_dest, std::span<const std::uint64_t> words);

    /// Sends every non-empty buffer to its hop, in the order
    /// hop = (me + i) mod p for i = 1 … p−1, and empties it. Sends and
    /// charges nothing when nothing is buffered.
    void flush(RankHandle& self);

    /// Batch-boundary hook for streaming workloads: advances the machine's
    /// epoch by one. Requires an epoch-stamped queue and a clean boundary
    /// (every lane flushed and the phase quiescent) — traffic from one batch
    /// must never bleed into the next, and handle() enforces this by
    /// rejecting records whose stamp disagrees with the current epoch.
    void begin_epoch();
    [[nodiscard]] std::uint64_t epoch() const noexcept { return epoch_; }

    using Deliver = std::function<void(RankHandle&, std::span<const std::uint64_t>)>;

    /// Processes one received physical payload: delivers records addressed
    /// to this PE and re-posts (aggregates) records in transit.
    void handle(RankHandle& self, std::span<const std::uint64_t> payload,
                const Deliver& deliver);

    /// Runs one superstep of this queue's traffic alone: handle() delivers
    /// to `deliver`, flush() is the idle hook, and a stamped queue opens a
    /// fresh epoch first. Returns the superstep's simulated seconds.
    double run_phase(Simulator& sim, const std::string& name,
                     const Simulator::RankFn& start, const Deliver& deliver);

private:
    /// One rank's state, on cache lines of its own: ranks run on many threads.
    struct alignas(64) Lane {
        std::uint64_t threshold = 0;    ///< δ
        std::vector<WordVec> buffers;   ///< by first hop; empty until the first post
        std::uint64_t buffered_words = 0;
    };

    /// Per-record header size on the wire: [final_dest, record_len] plus the
    /// epoch stamp when enabled.
    [[nodiscard]] std::size_t header_words() const noexcept {
        return epoch_stamped_ ? 3 : 2;
    }

    std::unique_ptr<const Router> router_;
    std::vector<Lane> lanes_;  ///< indexed by rank
    int tag_;
    bool epoch_stamped_;
    std::uint64_t epoch_ = 0;
};

}  // namespace katric::net
