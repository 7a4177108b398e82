// Positive control for the static-analysis harness: every annotation macro
// from util/thread_annotations.hpp exercised in one translation unit.
//
// This file must compile under EVERY supported compiler:
//   - gcc: proves the macros expand to nothing (the no-op contract — a
//     build without thread-safety analysis must not even see the attributes)
//   - clang with -Werror=thread-safety: proves the correctly-locked usage
//     below is clean under analysis
//
// It is compiled twice: once at configure time (try_compile, so a broken
// macro header fails the build before any target does) and once as the
// static_annotations_noop ctest.
#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace {

using katric::util::CondVar;
using katric::util::Mutex;
using katric::util::MutexLock;

class KATRIC_CAPABILITY("bank") Bank {
public:
    void acquire() KATRIC_ACQUIRE() {}
    void release() KATRIC_RELEASE() {}
    bool try_acquire() KATRIC_TRY_ACQUIRE(true) { return true; }
};

class Annotated {
public:
    void deposit(int amount) KATRIC_EXCLUDES(mutex_) {
        const MutexLock lock(mutex_);
        balance_ += amount;
        ready_.notify_all();
    }

    void wait_nonzero() KATRIC_EXCLUDES(mutex_) {
        const MutexLock lock(mutex_);
        while (balance_ == 0) { ready_.wait(mutex_); }
    }

    [[nodiscard]] int balance() const KATRIC_EXCLUDES(mutex_) {
        const MutexLock lock(mutex_);
        return balance_;
    }

    [[nodiscard]] int balance_locked() const KATRIC_REQUIRES(mutex_) {
        return balance_;
    }

    [[nodiscard]] Mutex& mutex() KATRIC_RETURN_CAPABILITY(mutex_) { return mutex_; }

    void assert_held() KATRIC_ASSERT_CAPABILITY(mutex_) {}

    [[nodiscard]] int* shared_ptr_target() KATRIC_REQUIRES(mutex_) { return &balance_; }

    void unchecked_peek() KATRIC_NO_THREAD_SAFETY_ANALYSIS { balance_ = 0; }

private:
    mutable Mutex mutex_;
    CondVar ready_;
    int balance_ KATRIC_GUARDED_BY(mutex_) = 0;
    int* escape_ KATRIC_PT_GUARDED_BY(mutex_) = nullptr;
};

}  // namespace

int main() {
    Annotated annotated;
    annotated.deposit(1);
    annotated.wait_nonzero();
    {
        const MutexLock lock(annotated.mutex());
        annotated.assert_held();
        (void)annotated.balance_locked();
    }
    annotated.unchecked_peek();
    Bank bank;
    if (bank.try_acquire()) { bank.release(); }
    return annotated.balance() == 0 ? 0 : 0;
}
