#pragma once

/// Clang thread-safety-analysis annotation macros (KATRIC_GUARDED_BY,
/// KATRIC_REQUIRES, KATRIC_ACQUIRE/RELEASE, KATRIC_CAPABILITY, …).
///
/// On Clang with -Wthread-safety these expand to the capability attributes,
/// turning the locking discipline of the concurrency layer — the serve
/// worker pool's stats, the admission queue, the obs registry/tracer — into
/// compile-time contracts: an unguarded access to an annotated member, or a
/// call into a KATRIC_REQUIRES function without the capability, is a build
/// error under -Werror=thread-safety (the CI static-analysis job). On every
/// other compiler the macros expand to nothing, verified by the negative-
/// compilation harness in tests/static/.
///
/// Annotate with the wrapper types from util/sync.hpp (util::Mutex and its
/// scoped lock): the analysis only follows lock/unlock calls that are
/// themselves annotated, which the standard library's mutexes are not on
/// libstdc++. Conventions and the escape-hatch
/// policy (KATRIC_NO_THREAD_SAFETY_ANALYSIS) live in docs/static-analysis.md.
#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(guarded_by)
#define KATRIC_THREAD_ANNOTATION__(x) __attribute__((x))
#endif
#endif
#ifndef KATRIC_THREAD_ANNOTATION__
#define KATRIC_THREAD_ANNOTATION__(x)  // no-op off Clang
#endif

/// Declares a type to be a capability ("mutex" in diagnostics).
#define KATRIC_CAPABILITY(x) KATRIC_THREAD_ANNOTATION__(capability(x))

/// Declares an RAII type that acquires a capability in its constructor and
/// releases it in its destructor.
#define KATRIC_SCOPED_CAPABILITY KATRIC_THREAD_ANNOTATION__(scoped_lockable)

/// Data member readable only with `x` held shared, writable only with `x`
/// held exclusively.
#define KATRIC_GUARDED_BY(x) KATRIC_THREAD_ANNOTATION__(guarded_by(x))

/// Pointer member whose *pointee* is protected by `x` (the pointer itself is
/// unguarded).
#define KATRIC_PT_GUARDED_BY(x) KATRIC_THREAD_ANNOTATION__(pt_guarded_by(x))

/// Function precondition: caller holds the capability exclusively (and still
/// does on return).
#define KATRIC_REQUIRES(...) \
    KATRIC_THREAD_ANNOTATION__(requires_capability(__VA_ARGS__))

/// Function acquires the capability exclusively and does not release it.
#define KATRIC_ACQUIRE(...) \
    KATRIC_THREAD_ANNOTATION__(acquire_capability(__VA_ARGS__))

/// Function releases the capability (exclusive hold; no argument on a scoped
/// capability's destructor releases whatever that object holds).
#define KATRIC_RELEASE(...) \
    KATRIC_THREAD_ANNOTATION__(release_capability(__VA_ARGS__))

/// Function tries to acquire the capability; the first argument is the
/// return value that means success.
#define KATRIC_TRY_ACQUIRE(...) \
    KATRIC_THREAD_ANNOTATION__(try_acquire_capability(__VA_ARGS__))

/// Function must be called with the capability NOT held (deadlock guard for
/// non-reentrant locks).
#define KATRIC_EXCLUDES(...) KATRIC_THREAD_ANNOTATION__(locks_excluded(__VA_ARGS__))

/// Function returns a reference to the given capability (annotated accessor
/// pattern).
#define KATRIC_RETURN_CAPABILITY(x) KATRIC_THREAD_ANNOTATION__(lock_returned(x))

/// Runtime assertion that the capability is held; informs the analysis
/// without acquiring.
#define KATRIC_ASSERT_CAPABILITY(x) \
    KATRIC_THREAD_ANNOTATION__(assert_capability(x))

/// Turns the analysis off for one function body. Policy: every use carries a
/// comment naming the invariant that holds instead and why the static model
/// cannot express it (see docs/static-analysis.md) — the domain linter's
/// review surface for escape hatches.
#define KATRIC_NO_THREAD_SAFETY_ANALYSIS \
    KATRIC_THREAD_ANNOTATION__(no_thread_safety_analysis)
