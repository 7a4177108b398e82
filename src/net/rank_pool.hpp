#pragma once

#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "graph/types.hpp"
#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace katric::net {

/// Host threads for a superstep's start round. In the paper's machine every
/// PE runs its local phase and builds its sends without waiting for any
/// other PE; the simulator mirrors that on the host by running the per-rank
/// start functions of one round on a pool, each rank's state touched by
/// one thread only (see Simulator's execution model).
///
/// Work split: thread slot s (the caller is slot 0, helper k slot k) runs
/// the stripe of ranks r ≡ s (mod threads()), in rank order, and the caller
/// returns once every stripe is done. The assignment is fixed rather than
/// claimed from a shared cursor so that a rank allocates in the same thread's
/// malloc arena round after round: freed memory is reused only within its
/// arena, so with shares that shift between rounds every arena grows to its
/// largest share, and peak RSS with it.
///
/// When to fan out: only while fewer than threads() host threads are inside
/// supersteps process-wide (SuperstepScope counts them). A round that finds
/// the cores already busy — e.g. every serve worker inside a query — runs
/// its ranks inline on the caller, so concurrent queries never oversubscribe
/// the host.
class RankPool {
public:
    using Body = std::function<void(graph::Rank)>;

    /// Starts `helpers` helper threads; 0 = every round runs inline.
    explicit RankPool(unsigned helpers);
    ~RankPool();
    RankPool(const RankPool&) = delete;
    RankPool& operator=(const RankPool&) = delete;

    /// The process-wide pool: hardware_concurrency() − 1 helpers, started on
    /// first use and never torn down.
    static RankPool& shared();

    [[nodiscard]] unsigned helpers() const noexcept {
        return static_cast<unsigned>(threads_.size());
    }
    /// Helpers plus the calling thread.
    [[nodiscard]] unsigned threads() const noexcept { return helpers() + 1; }

    /// True when a round over `ranks` ranks should fan out now (see the
    /// class comment). Reads an observable property, never a setting.
    [[nodiscard]] bool fans_out(graph::Rank ranks) const noexcept;

    /// Calls body(r) once for every r in [0, ranks), each stripe on its
    /// thread, and returns after the last call returned — every call's
    /// effects are then visible to the caller. `body` must not throw.
    void run(graph::Rank ranks, const Body& body) KATRIC_EXCLUDES(mutex_);

    /// Marks the calling thread as inside a superstep for its lifetime.
    class SuperstepScope {
    public:
        SuperstepScope() noexcept;
        ~SuperstepScope();
        SuperstepScope(const SuperstepScope&) = delete;
        SuperstepScope& operator=(const SuperstepScope&) = delete;
    };

private:
    /// One round. `started` and `pending` are guarded by mutex_.
    struct Job {
        const Body* body = nullptr;
        graph::Rank ranks = 0;
        unsigned stripes = 1;
        std::vector<bool> started;  ///< per slot: its stripe is being run
        unsigned pending = 0;       ///< helper stripes not finished yet
    };

    static void run_stripe(const Job& job, unsigned slot) noexcept;
    /// The oldest job with ranks in slot's stripe that it has not started.
    Job* job_for(unsigned slot) KATRIC_REQUIRES(mutex_);
    void helper_loop(unsigned slot) KATRIC_EXCLUDES(mutex_);

    util::Mutex mutex_;
    util::CondVar wake_;  ///< a job was posted, or the pool is stopping
    util::CondVar done_;  ///< a helper finished its stripe
    std::deque<Job*> jobs_ KATRIC_GUARDED_BY(mutex_);
    bool stopping_ KATRIC_GUARDED_BY(mutex_) = false;
    std::vector<std::thread> threads_;
};

}  // namespace katric::net
