#include "core/hybrid.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace katric::core {

ThreadBinner::ThreadBinner(int threads, std::uint64_t chunk_tasks)
    : threads_(std::max(threads, 1)), chunk_tasks_(chunk_tasks) {
    KATRIC_ASSERT(chunk_tasks >= 1);
}

std::uint64_t ThreadBinner::least_load() const {
    if (bins_.size() < static_cast<std::size_t>(threads_)) { return 0; }
    return *std::min_element(bins_.begin(), bins_.end());
}

void ThreadBinner::flush_chunk() {
    if (chunk_fill_ == 0) { return; }
    // "Next chunk goes to the first free thread": greedy to the least
    // loaded bin, the classic online makespan heuristic. An unopened bin is
    // least loaded (0); which of several equal bins takes the chunk leaves
    // the multiset of loads, and so the makespan, unchanged.
    if (bins_.size() < static_cast<std::size_t>(threads_)) {
        bins_.push_back(chunk_ops_);
    } else {
        *std::min_element(bins_.begin(), bins_.end()) += chunk_ops_;
    }
    chunk_ops_ = 0;
    chunk_fill_ = 0;
}

void ThreadBinner::add_task(std::uint64_t ops) {
    chunk_ops_ += ops;
    total_ops_ += ops;
    if (++chunk_fill_ >= chunk_tasks_) { flush_chunk(); }
}

std::uint64_t ThreadBinner::makespan_ops() const {
    std::uint64_t makespan =
        bins_.empty() ? 0 : *std::max_element(bins_.begin(), bins_.end());
    // Account for a pending partial chunk as if assigned to the least bin.
    if (chunk_fill_ > 0) { makespan = std::max(makespan, least_load() + chunk_ops_); }
    return makespan;
}

}  // namespace katric::core
