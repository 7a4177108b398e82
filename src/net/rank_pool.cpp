#include "net/rank_pool.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>

namespace katric::net {

namespace {
/// Host threads currently inside a Simulator superstep, process-wide.
std::atomic<unsigned> g_in_superstep{0};
}  // namespace

RankPool::SuperstepScope::SuperstepScope() noexcept {
    g_in_superstep.fetch_add(1, std::memory_order_relaxed);
}

RankPool::SuperstepScope::~SuperstepScope() {
    g_in_superstep.fetch_sub(1, std::memory_order_relaxed);
}

RankPool::RankPool(unsigned helpers) {
    threads_.reserve(helpers);
    for (unsigned slot = 1; slot <= helpers; ++slot) {
        threads_.emplace_back([this, slot] { helper_loop(slot); });
    }
}

RankPool::~RankPool() {
    {
        const util::MutexLock lock(mutex_);
        stopping_ = true;
    }
    wake_.notify_all();
    for (auto& thread : threads_) { thread.join(); }
}

RankPool& RankPool::shared() {
    // Leaked on purpose: helpers stay parked on the condition variable until
    // process exit, so no static destructor can race a late superstep.
    static RankPool* const pool =
        new RankPool(std::max(std::thread::hardware_concurrency(), 1u) - 1);
    return *pool;
}

bool RankPool::fans_out(graph::Rank ranks) const noexcept {
    return helpers() > 0 && ranks > 1
           && g_in_superstep.load(std::memory_order_relaxed) < threads();
}

void RankPool::run_stripe(const Job& job, unsigned slot) noexcept {
    for (std::uint64_t r = slot; r < job.ranks; r += job.stripes) {
        (*job.body)(static_cast<graph::Rank>(r));
    }
}

RankPool::Job* RankPool::job_for(unsigned slot) {
    for (Job* job : jobs_) {
        if (slot < job->ranks && !job->started[slot]) { return job; }
    }
    return nullptr;
}

void RankPool::run(graph::Rank ranks, const Body& body) {
    Job job;
    job.body = &body;
    job.ranks = ranks;
    job.stripes = threads();
    job.started.assign(job.stripes, false);
    job.pending = ranks == 0 ? 0 : std::min<unsigned>(helpers(), ranks - 1);
    {
        const util::MutexLock lock(mutex_);
        jobs_.push_back(&job);
    }
    wake_.notify_all();
    run_stripe(job, 0);
    // The mutex hand-off makes the helpers' writes visible here.
    const util::MutexLock lock(mutex_);
    while (job.pending > 0) { done_.wait(mutex_); }
    jobs_.erase(std::find(jobs_.begin(), jobs_.end(), &job));
}

void RankPool::helper_loop(unsigned slot) {
    mutex_.lock();
    while (true) {
        Job* job = nullptr;
        while (!stopping_ && (job = job_for(slot)) == nullptr) { wake_.wait(mutex_); }
        if (stopping_) { break; }
        job->started[slot] = true;
        mutex_.unlock();
        run_stripe(*job, slot);
        mutex_.lock();
        --job->pending;
        done_.notify_all();
    }
    mutex_.unlock();
}

}  // namespace katric::net
