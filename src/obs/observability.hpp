#pragma once

#include <atomic>
#include <memory>
#include <string>

#include "net/simulator.hpp"
#include "obs/kernel_stats.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/trace.hpp"
#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace katric::obs {

/// The one observability object an Engine session talks to: the metrics
/// registry, the kernel dispatch-mix sink, and (when a trace path is set)
/// the span tracer. Null when observability is off — every call site guards
/// on the pointer, so the disabled path costs one branch.
///
/// Lifetime and sharing: acquire() hands out shared_ptrs. Instances with a
/// trace path are *shared by path* — every Engine (and StreamSession) in the
/// process that targets the same --trace-out file appends to the same
/// Tracer, so a bench that builds several engines produces one coherent
/// timeline instead of each engine overwriting the file. The trace is
/// written when the last owner releases the instance.
class Observability {
public:
    /// Returns nullptr when both metrics and tracing are off. Otherwise a
    /// shared instance: fresh for metrics-only requests, path-shared when a
    /// trace file is requested (metrics_enabled is sticky-or'd across
    /// acquirers of the same path).
    [[nodiscard]] static std::shared_ptr<Observability> acquire(
        bool metrics, const std::string& trace_path);

    ~Observability();
    Observability(const Observability&) = delete;
    Observability& operator=(const Observability&) = delete;

    [[nodiscard]] bool metrics_enabled() const noexcept {
        // Relaxed: the flag only ever flips off→on, at acquire() time, and a
        // query that misses the flip merely skips one recording — no state
        // it would have touched exists yet.
        return metrics_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] bool tracing_enabled() const noexcept { return !trace_path_.empty(); }
    [[nodiscard]] const std::string& trace_path() const noexcept { return trace_path_; }

    MetricsRegistry& registry() noexcept { return registry_; }
    [[nodiscard]] const MetricsRegistry& registry() const noexcept { return registry_; }
    /// Quiescence-only accessor: read after drain() (or with no query in
    /// flight) — the analysis escape mirrors Tracer::spans().
    [[nodiscard]] const KernelStats& kernel_stats() const noexcept
        KATRIC_NO_THREAD_SAFETY_ANALYSIS {
        return kernel_stats_;
    }
    Tracer& tracer() noexcept { return tracer_; }
    [[nodiscard]] const Tracer& tracer() const noexcept { return tracer_; }

    /// Absorbs one finished query run: appends its spans to the trace,
    /// its host wall-clock to the per-kind latency summary
    /// ("query.<kind>.latency_seconds" — the serving p50/p99), and its
    /// per-rank communication totals to the comm counters and histograms.
    /// When `kernel_stats` is non-null its per-query dispatch mix is merged
    /// into the session totals. Serialized on an internal record mutex, so
    /// concurrent serve workers can finish queries against one instance.
    void observe_query(const std::string& kind, const net::Simulator& sim,
                       double wall_seconds, const KernelStats* kernel_stats = nullptr);

    /// Registry snapshot plus the kernel dispatch mix, human-readable.
    [[nodiscard]] std::string summary() const;

    /// Writes the trace file now (normally done by the destructor); false
    /// on I/O failure or when tracing is off.
    bool flush_trace();

private:
    Observability(bool metrics, std::string trace_path);

    /// Atomic because acquire() sticky-ors it on an already-shared instance
    /// while other engines may be mid-query on the same --trace-out path.
    std::atomic<bool> metrics_{false};
    std::string trace_path_;
    /// Serializes observe_query so the trace label numbering ("count#3") and
    /// the kernel-stats merge stay atomic per query.
    mutable util::Mutex record_mutex_;
    MetricsRegistry registry_;
    KernelStats kernel_stats_ KATRIC_GUARDED_BY(record_mutex_);
    Tracer tracer_;
};

}  // namespace katric::obs
