#include <exception>
#include <thread>
#include <utility>
#include <vector>

#include "engine.hpp"
#include "serve_queue.hpp"
#include "util/assert.hpp"
#include "util/statistics.hpp"
#include "util/sync.hpp"
#include "util/thread_annotations.hpp"
#include "util/timer.hpp"

namespace katric {

namespace {

constexpr int kDefaultServeThreads = 4;
constexpr std::size_t kDefaultQueueDepth = 64;

/// A request that never reached a worker: the typed serve error is the
/// whole report (query labelled, everything else at its defaults).
Report unadmitted_report(const ServeRequest& request, ServeError code) {
    Report report;
    report.query = request.query;
    report.error = make_error(code);
    return report;
}

}  // namespace

struct ServeSession::Impl {
    /// One admitted submission travelling to a worker. The timer starts at
    /// submit(), so the latency sample covers queueing + execution — the
    /// number a serving front-end actually experiences.
    struct Task {
        ServeRequest request;
        std::promise<Report> promise;
        WallTimer timer;
    };

    const Engine* engine;
    detail::AdmissionQueue<Task> queue;
    int num_threads;
    /// Spawned in the constructor (pre-publication), joined+cleared only
    /// under drain_mutex — the drain() idempotence hold.
    std::vector<std::thread> workers KATRIC_GUARDED_BY(drain_mutex);

    mutable util::Mutex stats_mutex;
    std::size_t submitted KATRIC_GUARDED_BY(stats_mutex) = 0;
    std::size_t completed KATRIC_GUARDED_BY(stats_mutex) = 0;
    std::size_t rejected KATRIC_GUARDED_BY(stats_mutex) = 0;
    std::size_t rejected_queue_full KATRIC_GUARDED_BY(stats_mutex) = 0;
    std::size_t rejected_stopped KATRIC_GUARDED_BY(stats_mutex) = 0;
    std::size_t rejected_unsupported KATRIC_GUARDED_BY(stats_mutex) = 0;
    std::size_t shed_deadline KATRIC_GUARDED_BY(stats_mutex) = 0;
    Summary latency KATRIC_GUARDED_BY(stats_mutex);

    util::Mutex drain_mutex;  ///< serializes drain() against itself
    bool drained KATRIC_GUARDED_BY(drain_mutex) = false;

    Impl(const Engine& owner, int threads, std::size_t depth)
        : engine(&owner), queue(depth), num_threads(threads) {
        workers.reserve(static_cast<std::size_t>(num_threads));
        for (int i = 0; i < num_threads; ++i) {
            workers.emplace_back([this] { run_worker(); });
        }
    }

    ~Impl() { drain(); }

    Report run(const ServeRequest& request) {
        switch (request.query) {
            case Query::kCount: return engine->count(request.options);
            case Query::kLcc: return engine->lcc(request.options);
            case Query::kEnumerate: return engine->enumerate(request.options);
            case Query::kApprox: return engine->approx_count(request.options);
            case Query::kStream: break;  // screened out at submit()
        }
        return unadmitted_report(request, ServeError::kUnsupported);
    }

    /// The request's latency budget: its own deadline, else the per-query
    /// override, else the engine's configured default. 0 = none.
    [[nodiscard]] double effective_deadline(const ServeRequest& request) const {
        if (request.deadline_seconds > 0.0) { return request.deadline_seconds; }
        return request.options.deadline_seconds.value_or(
            engine->config().deadline_seconds);
    }

    /// Load shedding: the task expired while still queued, so don't waste a
    /// worker on an answer nobody is waiting for — resolve it typed.
    void shed(Task& task) {
        task.promise.set_value(unadmitted_report(task.request, ServeError::kDeadline));
        {
            const util::MutexLock lock(stats_mutex);
            ++shed_deadline;
        }
        if (const auto& obs = engine->observability(); obs && obs->metrics_enabled()) {
            obs->registry().count("serve.shed_deadline");
        }
    }

    void run_worker() {
        // pop() returns nullopt only when the queue is closed AND drained —
        // every accepted task is finished before a worker exits.
        while (auto task = queue.pop()) {
            const double deadline = effective_deadline(task->request);
            if (deadline > 0.0) {
                const double elapsed = task->timer.elapsed_seconds();
                if (elapsed >= deadline) {
                    shed(*task);
                    continue;
                }
                // The time already spent queued comes out of the run budget:
                // the query cancels cooperatively once the remainder is gone.
                task->request.options.deadline_seconds = deadline - elapsed;
            }
            Report report;
            try {
                report = run(task->request);
            } catch (...) {
                task->promise.set_exception(std::current_exception());
                continue;
            }
            const double seconds = task->timer.elapsed_seconds();
            task->promise.set_value(std::move(report));
            const util::MutexLock lock(stats_mutex);
            ++completed;
            latency.add(seconds);
        }
    }

    std::future<Report> submit(const ServeRequest& request) {
        if (request.query == Query::kStream) {
            return refused(request, ServeError::kUnsupported);
        }
        Task task;
        task.request = request;
        auto future = task.promise.get_future();
        switch (queue.push(std::move(task), request.priority)) {
            case detail::AdmissionQueue<Task>::Push::kAccepted: {
                const util::MutexLock lock(stats_mutex);
                ++submitted;
                return future;
            }
            case detail::AdmissionQueue<Task>::Push::kRejected:
                return refused(request, ServeError::kRejected);
            case detail::AdmissionQueue<Task>::Push::kClosed:
                return refused(request, ServeError::kStopped);
        }
        KATRIC_THROW("AdmissionQueue::push returned an unknown Push value");
    }

    std::future<Report> refused(const ServeRequest& request, ServeError code) {
        {
            const util::MutexLock lock(stats_mutex);
            ++rejected;
            switch (code) {
                case ServeError::kRejected: ++rejected_queue_full; break;
                case ServeError::kStopped: ++rejected_stopped; break;
                case ServeError::kUnsupported: ++rejected_unsupported; break;
                case ServeError::kNone:
                case ServeError::kDeadline: break;  // shed() counts deadlines
            }
        }
        std::promise<Report> promise;
        promise.set_value(unadmitted_report(request, code));
        return promise.get_future();
    }

    void drain() {
        const util::MutexLock lock(drain_mutex);
        if (drained) { return; }
        drained = true;
        queue.close();
        for (auto& worker : workers) { worker.join(); }
        workers.clear();
    }
};

ServeSession::ServeSession(const Engine& engine, const ServeOptions& options) {
    const auto& config = engine.config();
    int threads = options.threads != 0 ? options.threads : config.serve_threads;
    if (threads <= 0) { threads = kDefaultServeThreads; }
    std::size_t depth = options.queue_depth != 0 ? options.queue_depth
                                                 : config.queue_depth;
    if (depth == 0) { depth = kDefaultQueueDepth; }
    impl_ = std::make_unique<Impl>(engine, threads, depth);
}

ServeSession::ServeSession(ServeSession&&) noexcept = default;

ServeSession& ServeSession::operator=(ServeSession&& other) noexcept {
    if (this != &other) {
        // Retire the current session cleanly before adopting the new one —
        // never destroy an Impl with live workers un-drained.
        if (impl_) { impl_->drain(); }
        impl_ = std::move(other.impl_);
    }
    return *this;
}

ServeSession::~ServeSession() {
    if (impl_) { impl_->drain(); }
}

std::future<Report> ServeSession::submit(const ServeRequest& request) {
    return impl_->submit(request);
}

void ServeSession::drain() { impl_->drain(); }

ServeSession::Stats ServeSession::stats() const {
    const util::MutexLock lock(impl_->stats_mutex);
    Stats stats;
    stats.submitted = impl_->submitted;
    stats.completed = impl_->completed;
    stats.rejected = impl_->rejected;
    stats.rejected_queue_full = impl_->rejected_queue_full;
    stats.rejected_stopped = impl_->rejected_stopped;
    stats.rejected_unsupported = impl_->rejected_unsupported;
    stats.shed_deadline = impl_->shed_deadline;
    if (impl_->latency.count() > 0) {
        stats.latency_p50 = impl_->latency.percentile(0.5);
        stats.latency_p99 = impl_->latency.percentile(0.99);
        stats.latency_max = impl_->latency.max();
    }
    return stats;
}

int ServeSession::threads() const noexcept { return impl_->num_threads; }

std::size_t ServeSession::queue_depth() const noexcept {
    return impl_->queue.capacity();
}

ServeSession Engine::serve(const ServeOptions& options) const {
    return ServeSession(*this, options);
}

}  // namespace katric
