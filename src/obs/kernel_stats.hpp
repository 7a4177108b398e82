#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace katric::obs {

/// The kernel a dispatcher actually executed for one intersection — finer
/// grained than seq::IntersectKind because kAdaptive resolves to a
/// different kernel per call (and the hub path splits into word-AND vs
/// probe). This is the substrate for crossover tuning: pairing each choice
/// with the operand-size bucket it fired in shows where the dispatch
/// boundaries actually sit on a live workload.
///
/// kBinary and kHybrid are never recorded: no IntersectKind runs those
/// kernels. They keep their slots so every `seq.calls.<choice>` series the
/// benchmark emits keeps its name (and reads 0).
enum class KernelChoice : std::uint8_t {
    kMerge,         ///< merge kind: mark-and-probe, charged as the scalar merge
    kBinary,        ///< never recorded
    kHybrid,        ///< never recorded
    kGalloping,     ///< cursor galloping
    kSimdMerge,     ///< adaptive block merge (the name the benchmark emits)
    kBitmapHubHub,  ///< hub∩hub word-AND + popcount
    kBitmapProbe,   ///< non-hub row probed through a hub bitmap
};

inline constexpr std::size_t kNumKernelChoices = 7;

[[nodiscard]] std::string kernel_choice_name(KernelChoice choice);

/// Dispatch-mix counters recorded by seq::AdaptiveIntersect: how often each
/// kernel fired, bucketed by the smaller operand's log₂ size (the cost
/// driver of every kernel), plus hub-bitmap hit/miss rates for
/// kAdaptive. Recording is a single array increment on the already
/// decided branch — cheap enough for the per-intersection hot path — and
/// entirely skipped when no stats object is attached (the disabled default).
///
/// Not thread-safe: one instance per simulated PE (KernelStatsByRank), since
/// the ranks of a start round run on different host threads. The Engine
/// records into a query-local set and merges it into the session totals
/// under Observability's record mutex on finalize.
struct KernelStats {
    /// Smaller-operand log₂ buckets: bucket i covers sizes [2^(i-1), 2^i),
    /// bucket 0 is empty/size-0 operands, the last bucket saturates.
    static constexpr std::size_t kBuckets = 24;

    std::array<std::array<std::uint64_t, kBuckets>, kNumKernelChoices> dispatch{};
    /// Hub-index outcomes on kAdaptive: a hit means at least one operand
    /// was served from its bitmap; a miss means an index existed but
    /// covered neither operand (the dispatcher fell through to the
    /// size-adaptive choice).
    std::uint64_t hub_hits = 0;
    std::uint64_t hub_misses = 0;

    void record(KernelChoice choice, std::size_t smaller_size) noexcept;

    void merge(const KernelStats& other) noexcept;
    void reset() noexcept;

    [[nodiscard]] std::uint64_t total() const noexcept;
    [[nodiscard]] std::uint64_t total(KernelChoice choice) const noexcept;
    /// hits / (hits + misses); 0 when the hub kinds never ran.
    [[nodiscard]] double hub_hit_rate() const noexcept;

    /// Dispatch-mix table: one line per (choice, bucket) with a non-zero
    /// count, plus the hub hit/miss summary.
    [[nodiscard]] std::string to_string() const;
};

/// One KernelStats sink per simulated PE, each on its own cache lines: a
/// rank's intersections record only into its own sink, whichever host
/// thread runs them.
class KernelStatsByRank {
public:
    explicit KernelStatsByRank(std::size_t ranks) : sinks_(ranks) {}

    [[nodiscard]] KernelStats* at(std::size_t rank) noexcept {
        return &sinks_[rank].stats;
    }
    /// The sum over all ranks.
    [[nodiscard]] KernelStats merged() const noexcept;

private:
    struct alignas(64) Sink {
        KernelStats stats;
    };
    std::vector<Sink> sinks_;
};

/// `rank`'s sink in `sinks`, or null when recording is off (null set).
[[nodiscard]] inline KernelStats* rank_sink(KernelStatsByRank* sinks,
                                            std::size_t rank) noexcept {
    return sinks != nullptr ? sinks->at(rank) : nullptr;
}

/// Bucket index for a smaller-operand size (see KernelStats::kBuckets).
[[nodiscard]] std::size_t kernel_size_bucket(std::size_t smaller_size) noexcept;

/// Human label for a bucket: "0", "[1,1]", "[2,3]", "[2^k,2^(k+1))"…
[[nodiscard]] std::string kernel_size_bucket_label(std::size_t bucket);

}  // namespace katric::obs
