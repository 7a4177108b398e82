#include "net/message_queue.hpp"

#include "util/assert.hpp"

namespace katric::net {

MessageQueue::MessageQueue(std::unique_ptr<const Router> router,
                           const std::vector<std::uint64_t>& thresholds, int tag,
                           bool epoch_stamped)
    : router_(std::move(router)), lanes_(thresholds.size()), tag_(tag),
      epoch_stamped_(epoch_stamped) {
    for (Rank r = 0; r < lanes_.size(); ++r) {
        KATRIC_ASSERT(thresholds[r] > 0);
        lanes_[r].threshold = thresholds[r];
    }
}

void MessageQueue::post(RankHandle& self, Rank final_dest,
                        std::span<const std::uint64_t> words) {
    KATRIC_ASSERT_MSG(final_dest != self.rank(), "queue post to self on rank " << self.rank());
    const Rank hop = router_->first_hop(self.rank(), final_dest);
    Lane& lane = lanes_[self.rank()];
    if (lane.buffers.empty()) { lane.buffers.resize(self.size()); }
    WordVec& buffer = lane.buffers[hop];
    buffer.push_back(final_dest);
    buffer.push_back(words.size());
    if (epoch_stamped_) { buffer.push_back(epoch_); }
    buffer.insert(buffer.end(), words.begin(), words.end());
    lane.buffered_words += header_words() + words.size();
    self.note_buffered_words(lane.buffered_words);
    if (lane.buffered_words > lane.threshold) { flush(self); }
}

void MessageQueue::flush(RankHandle& self) {
    Lane& lane = lanes_[self.rank()];
    if (lane.buffered_words == 0) { return; }
    const auto p = static_cast<Rank>(lane.buffers.size());
    // The flush order is the 1-factor all-to-all schedule, hop (me + i) mod p
    // for i = 1 … p−1: a single-ported sender pays α + βℓ per send in turn,
    // and staggering where each PE starts spreads its first arrivals over
    // all receivers instead of queueing every PE's first send at rank 0.
    for (Rank i = 1; i < p; ++i) {
        const Rank hop = (self.rank() + i) % p;
        WordVec& buffer = lane.buffers[hop];
        if (!buffer.empty()) { self.send(hop, std::move(buffer), tag_); }  // leaves it empty
    }
    lane.buffered_words = 0;
}

void MessageQueue::begin_epoch() {
    KATRIC_ASSERT_MSG(epoch_stamped_, "begin_epoch on a non-epoch-stamped queue");
    for (Rank r = 0; r < lanes_.size(); ++r) {
        const std::uint64_t words = lanes_[r].buffered_words;
        KATRIC_ASSERT_MSG(words == 0, "rank " << r << " crossed a batch boundary with "
                                              << words << " words still buffered");
    }
    ++epoch_;
}

void MessageQueue::handle(RankHandle& self, std::span<const std::uint64_t> payload,
                          const Deliver& deliver) {
    std::size_t index = 0;
    const std::size_t header = header_words();
    while (index < payload.size()) {
        KATRIC_ASSERT_MSG(index + header <= payload.size(), "truncated record header");
        const auto final_dest = static_cast<Rank>(payload[index]);
        const auto length = static_cast<std::size_t>(payload[index + 1]);
        if (epoch_stamped_) {
            KATRIC_ASSERT_MSG(payload[index + 2] == epoch_,
                              "record from epoch " << payload[index + 2]
                                                   << " crossed into epoch " << epoch_);
        }
        KATRIC_ASSERT_MSG(index + header + length <= payload.size(),
                          "truncated record body");
        const auto record = payload.subspan(index + header, length);
        if (final_dest == self.rank()) {
            deliver(self, record);
        } else {
            // Aggregation at the proxy: records for the same final column
            // destination coalesce in this rank's lane.
            self.charge_ops(length);  // copy cost of staging the record
            post(self, final_dest, record);
        }
        index += header + length;
    }
}

double MessageQueue::run_phase(Simulator& sim, const std::string& name,
                               const Simulator::RankFn& start, const Deliver& deliver) {
    KATRIC_ASSERT(lanes_.size() == sim.num_ranks());
    if (epoch_stamped_) { begin_epoch(); }
    return sim.run_phase(
        name, start,
        [&](RankHandle& self, Rank, int tag, std::span<const std::uint64_t> payload) {
            KATRIC_ASSERT(tag == tag_);
            handle(self, payload, deliver);
        },
        [this](RankHandle& self) { flush(self); });
}

}  // namespace katric::net
