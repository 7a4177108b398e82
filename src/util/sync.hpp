#pragma once

#include <condition_variable>
#include <mutex>

#include "util/thread_annotations.hpp"

namespace katric::util {

/// Annotated wrappers over the standard mutex. The thread-safety analysis
/// only follows lock/unlock calls that carry capability attributes, which
/// libstdc++'s std::mutex does not — so the concurrency layer locks through
/// these instead. Zero overhead: every method is an inline forward to the
/// wrapped standard primitive.

/// std::mutex with capability annotations. Lock it with MutexLock (or
/// lock/unlock directly inside KATRIC_ACQUIRE/RELEASE-annotated code).
class KATRIC_CAPABILITY("mutex") Mutex {
public:
    Mutex() = default;
    Mutex(const Mutex&) = delete;
    Mutex& operator=(const Mutex&) = delete;

    void lock() KATRIC_ACQUIRE() { mutex_.lock(); }
    void unlock() KATRIC_RELEASE() { mutex_.unlock(); }
    bool try_lock() KATRIC_TRY_ACQUIRE(true) { return mutex_.try_lock(); }

    /// The wrapped handle, for interop that cannot go through the annotated
    /// surface (CondVar's adopt-lock dance). Holding discipline is the
    /// caller's annotated contract, not the handle's.
    [[nodiscard]] std::mutex& native() noexcept { return mutex_; }

private:
    std::mutex mutex_;
};

/// Scoped exclusive hold on a Mutex (std::lock_guard shape).
class KATRIC_SCOPED_CAPABILITY MutexLock {
public:
    explicit MutexLock(Mutex& mutex) KATRIC_ACQUIRE(mutex) : mutex_(mutex) {
        mutex_.lock();
    }
    ~MutexLock() KATRIC_RELEASE() { mutex_.unlock(); }
    MutexLock(const MutexLock&) = delete;
    MutexLock& operator=(const MutexLock&) = delete;

private:
    Mutex& mutex_;
};

/// Condition variable usable under an annotated Mutex. wait() requires the
/// caller's hold (so the analysis checks the predicate loop touches guarded
/// state correctly) and preserves it across the block, like
/// std::condition_variable::wait does for its unique_lock.
class CondVar {
public:
    void wait(Mutex& mutex) KATRIC_REQUIRES(mutex) {
        // Borrow the already-held native mutex for the duration of the wait;
        // release() hands ownership back so the annotated hold stays honest.
        std::unique_lock<std::mutex> native(mutex.native(), std::adopt_lock);
        cv_.wait(native);
        native.release();
    }

    void notify_one() noexcept { cv_.notify_one(); }
    void notify_all() noexcept { cv_.notify_all(); }

private:
    std::condition_variable cv_;
};

}  // namespace katric::util
