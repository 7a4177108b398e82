#include "net/message_queue.hpp"

#include "util/assert.hpp"

namespace katric::net {

MessageQueue::MessageQueue(std::uint64_t threshold_words, const Router& router, int tag,
                           bool epoch_stamped)
    : threshold_(threshold_words), router_(&router), tag_(tag),
      epoch_stamped_(epoch_stamped) {
    KATRIC_ASSERT(threshold_words > 0);
}

void MessageQueue::post(RankHandle& self, Rank final_dest,
                        std::span<const std::uint64_t> words) {
    KATRIC_ASSERT_MSG(final_dest != self.rank(), "queue post to self on rank " << self.rank());
    const Rank hop = router_->first_hop(self.rank(), final_dest);
    if (buffers_.empty()) { buffers_.resize(self.size()); }
    WordVec& buffer = buffers_[hop];
    buffer.push_back(final_dest);
    buffer.push_back(words.size());
    if (epoch_stamped_) { buffer.push_back(epoch_); }
    buffer.insert(buffer.end(), words.begin(), words.end());
    buffered_words_ += header_words() + words.size();
    self.note_buffered_words(buffered_words_);
    if (buffered_words_ > threshold_) { flush(self); }
}

void MessageQueue::flush(RankHandle& self) {
    if (buffered_words_ == 0) { return; }
    const auto p = static_cast<Rank>(buffers_.size());
    // The flush order is the 1-factor all-to-all schedule, hop (me + i) mod p
    // for i = 1 … p−1: a single-ported sender pays α + βℓ per send in turn,
    // and staggering where each PE starts spreads its first arrivals over
    // all receivers instead of queueing every PE's first send at rank 0.
    for (Rank i = 1; i < p; ++i) {
        const Rank hop = (self.rank() + i) % p;
        WordVec& buffer = buffers_[hop];
        if (!buffer.empty()) { self.send(hop, std::move(buffer), tag_); }  // leaves it empty
    }
    buffered_words_ = 0;
}

void MessageQueue::begin_epoch(std::uint64_t epoch) {
    KATRIC_ASSERT_MSG(epoch_stamped_, "begin_epoch on a non-epoch-stamped queue");
    KATRIC_ASSERT_MSG(buffered_words_ == 0,
                      "batch boundary crossed with " << buffered_words_
                                                     << " words still buffered");
    epoch_ = epoch;
}

std::size_t MessageQueue::handle(RankHandle& self, std::span<const std::uint64_t> payload,
                                 const Deliver& deliver) {
    std::size_t delivered = 0;
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
            ++delivered;
        } else {
            // Aggregation at the proxy: records for the same final column
            // destination coalesce in this queue's buffers.
            self.charge_ops(length);  // copy cost of staging the record
            post(self, final_dest, record);
        }
        index += header + length;
    }
    return delivered;
}

}  // namespace katric::net
