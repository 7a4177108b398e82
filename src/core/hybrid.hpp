#pragma once

#include <cstdint>
#include <vector>

namespace katric::core {

/// Deterministic model of the hybrid (threads-per-rank) local phase of
/// Section IV-D: intersection tasks are assigned chunk-wise to the
/// least-loaded thread — the behaviour of edge-centric work stealing /
/// dynamic loop scheduling — and the phase costs the makespan over
/// threads. With one thread this degenerates to the sequential sum.
class ThreadBinner {
public:
    explicit ThreadBinner(int threads, std::uint64_t chunk_tasks = 64);

    /// Adds one task (one set intersection) costing `ops` operations.
    void add_task(std::uint64_t ops);

    /// Critical-path work over threads after all tasks are added.
    [[nodiscard]] std::uint64_t makespan_ops() const;
    [[nodiscard]] std::uint64_t total_ops() const noexcept { return total_ops_; }
    [[nodiscard]] int threads() const noexcept { return static_cast<int>(bins_.size()); }

private:
    void flush_chunk();

    std::vector<std::uint64_t> bins_;
    std::uint64_t chunk_tasks_;
    std::uint64_t chunk_ops_ = 0;
    std::uint64_t chunk_fill_ = 0;
    std::uint64_t total_ops_ = 0;
};

}  // namespace katric::core
