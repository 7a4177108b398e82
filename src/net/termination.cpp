#include "net/termination.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace katric::net {

TerminationDetector::TerminationDetector(Rank num_ranks, int report_tag, int verdict_tag)
    : num_ranks_(num_ranks),
      report_tag_(report_tag),
      verdict_tag_(verdict_tag),
      sent_(num_ranks, 0),
      received_(num_ranks, 0),
      last_reported_sent_(num_ranks, 0),
      last_reported_received_(num_ranks, 0),
      reported_once_(num_ranks, 0),
      terminated_(num_ranks, 0),
      latest_sent_(num_ranks, 0),
      latest_received_(num_ranks, 0),
      heard_from_(num_ranks, 0) {}

void TerminationDetector::on_idle(RankHandle& self) {
    const Rank r = self.rank();
    if (terminated_[r]) { return; }
    // Report unconditionally: the coordinator needs a full *unchanged* wave
    // to confirm, so even idle PEs must keep answering until the verdict.
    last_reported_sent_[r] = sent_[r];
    last_reported_received_[r] = received_[r];
    reported_once_[r] = 1;
    if (r == 0) {
        latest_sent_[0] = sent_[0];
        latest_received_[0] = received_[0];
        heard_from_[0] = 1;
        coordinator_check(self);
    } else {
        self.send(0, WordVec{sent_[r], received_[r]}, report_tag_);
    }
}

bool TerminationDetector::handle(RankHandle& self, Rank src, int tag,
                                 std::span<const std::uint64_t> payload) {
    const Rank r = self.rank();
    if (tag == report_tag_) {
        KATRIC_ASSERT(r == 0);
        KATRIC_ASSERT(payload.size() == 2);
        latest_sent_[src] = payload[0];
        latest_received_[src] = payload[1];
        heard_from_[src] = 1;
        coordinator_check(self);
        return true;
    }
    if (tag == verdict_tag_) {
        terminated_[r] = 1;
        return true;
    }
    return false;
}

void TerminationDetector::coordinator_check(RankHandle& self) {
    if (verdict_sent_) { return; }
    if (std::find(heard_from_.begin(), heard_from_.end(), 0) != heard_from_.end()) {
        return;
    }
    std::uint64_t total_sent = 0;
    std::uint64_t total_received = 0;
    for (Rank r = 0; r < num_ranks_; ++r) {
        total_sent += latest_sent_[r];
        total_received += latest_received_[r];
    }
    ++waves_;
    // Four-counter criterion: two consecutive waves agree and balance. On a
    // single PE no message can cross between waves (the idle hook only runs
    // on a drained event queue), so one balanced snapshot suffices.
    if ((num_ranks_ == 1 && total_sent == total_received)
        || (have_previous_snapshot_ && total_sent == total_received
            && total_sent == previous_total_sent_
            && total_received == previous_total_received_)) {
        verdict_sent_ = true;
        terminated_[0] = 1;
        for (Rank r = 1; r < num_ranks_; ++r) { self.send(r, WordVec{1}, verdict_tag_); }
        return;
    }
    previous_total_sent_ = total_sent;
    previous_total_received_ = total_received;
    have_previous_snapshot_ = true;
    // Start the next wave: forget this one's reports.
    std::fill(heard_from_.begin(), heard_from_.end(), 0);
}

bool TerminationDetector::all_terminated() const {
    return std::find(terminated_.begin(), terminated_.end(), 0) == terminated_.end();
}

}  // namespace katric::net
