#include "obs/observability.hpp"

#include <map>
#include <mutex>
#include <sstream>

namespace katric::obs {

namespace {

/// Path-keyed registry of live traced instances (see Observability docs).
/// The mutex guards acquire-time lookup; recording is serialized separately
/// on each instance's record mutex.
std::mutex g_registry_mutex;
std::map<std::string, std::weak_ptr<Observability>>& traced_instances() {
    static std::map<std::string, std::weak_ptr<Observability>> instances;
    return instances;
}

}  // namespace

Observability::Observability(bool metrics, std::string trace_path)
    : metrics_(metrics), trace_path_(std::move(trace_path)) {}

Observability::~Observability() { flush_trace(); }

std::shared_ptr<Observability> Observability::acquire(bool metrics,
                                                      const std::string& trace_path) {
    if (!metrics && trace_path.empty()) { return nullptr; }
    if (trace_path.empty()) {
        return std::shared_ptr<Observability>(new Observability(metrics, trace_path));
    }
    std::lock_guard<std::mutex> lock(g_registry_mutex);
    auto& instances = traced_instances();
    if (auto existing = instances[trace_path].lock()) {
        // Sticky-or: once any acquirer wants metrics, the shared instance
        // records them. Atomic — other engines on this path may be mid-query.
        if (metrics) { existing->metrics_.store(true, std::memory_order_relaxed); }
        return existing;
    }
    std::shared_ptr<Observability> fresh(new Observability(metrics, trace_path));
    instances[trace_path] = fresh;
    return fresh;
}

void Observability::observe_query(const std::string& kind, const net::Simulator& sim,
                                  double wall_seconds,
                                  const KernelStats* kernel_stats) {
    const util::MutexLock record_lock(record_mutex_);
    if (kernel_stats != nullptr) { kernel_stats_.merge(*kernel_stats); }
    if (tracing_enabled()) {
        std::ostringstream label;
        label << kind << '#' << tracer_.num_queries();
        tracer_.record_query(label.str(), sim);
    }
    if (!metrics_enabled()) { return; }
    registry_.count("query." + kind);
    registry_.observe_latency("query." + kind + ".latency_seconds", wall_seconds);
    registry_.observe_latency("query." + kind + ".sim_seconds", sim.time());
    std::uint64_t windows = 0;
    std::uint64_t windows_fanned = 0;
    for (const auto& phase : sim.phases()) {
        windows += phase.host_windows;
        windows_fanned += phase.host_windows_fanned;
    }
    registry_.count("host.deliver_windows", windows);
    registry_.count("host.deliver_windows_fanned", windows_fanned);
    for (const auto& rank : sim.rank_metrics()) {
        registry_.count("comm.messages_sent", rank.messages_sent);
        registry_.count("comm.words_sent", rank.words_sent);
        registry_.count("compute.ops", rank.compute_ops);
        registry_.observe_size("comm.rank_words_sent", rank.words_sent);
        registry_.observe_size("comm.rank_messages_sent", rank.messages_sent);
    }
}

std::string Observability::summary() const {
    std::ostringstream out;
    out << registry_.to_string();
    const util::MutexLock record_lock(record_mutex_);
    if (kernel_stats_.total() > 0 || kernel_stats_.hub_hits + kernel_stats_.hub_misses > 0) {
        out << "-- kernel dispatch mix --\n" << kernel_stats_.to_string();
    }
    return out.str();
}

bool Observability::flush_trace() {
    if (!tracing_enabled()) { return false; }
    return tracer_.write(trace_path_);
}

}  // namespace katric::obs
