#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "graph/types.hpp"

namespace katric::seq {

/// Result of a set-intersection count plus the number of elementary
/// operations performed. The op count feeds the simulator's compute-cost
/// model so simulated time reflects the real work the kernels do.
struct IntersectResult {
    std::uint64_t count = 0;
    std::uint64_t ops = 0;
};

/// The kernel menu. kMerge runs the paper's merge on every intersection;
/// kAdaptive picks per intersection — hub bitmap, galloping or block merge
/// — from operand sizes and hub membership (see seq::AdaptiveIntersect for
/// the decision table).
enum class IntersectKind {
    kMerge,
    kAdaptive,
};

[[nodiscard]] std::string intersect_kind_name(IntersectKind kind);
/// Parses "merge|adaptive"; throws assertion_error on anything else (CLI
/// typos must fail loudly).
[[nodiscard]] IntersectKind parse_intersect_kind(const std::string& name);
[[nodiscard]] const std::vector<IntersectKind>& all_intersect_kinds();

/// Merge-style intersection of two ID-sorted neighborhoods — the kernel the
/// paper uses ("a procedure similar to the merge phase of merge sort").
/// ops = number of comparisons ≈ |a| + |b|. The merge kind charges exactly
/// these ops but runs mark-and-probe on the host
/// (seq::AdaptiveIntersect::FixedRow); this loop is the reference for that
/// charge, kept for the tests and bench_micro_kernels.
[[nodiscard]] IntersectResult intersect_merge(std::span<const graph::VertexId> a,
                                              std::span<const graph::VertexId> b) noexcept;

/// Merge intersection that also reports the common elements — needed for
/// per-vertex triangle counts (LCC), where every closing vertex w must be
/// credited. Appends to `out` in ascending ID order.
IntersectResult intersect_merge_collect(std::span<const graph::VertexId> a,
                                        std::span<const graph::VertexId> b,
                                        std::vector<graph::VertexId>& out);

/// The block merge charges one 4×4 block comparison this many ops: it
/// replaces up to 8 scalar merge comparisons but retires in a few
/// instructions (calibrated against bench_micro_kernels, see
/// docs/kernels.md).
inline constexpr std::uint64_t kSimdMergeBlockOps = 3;

/// Block merge: while both rows have a full 4-element block left, compare
/// the two blocks all-pairs (kSimdMergeBlockOps) and advance the block with
/// the smaller maximum, both on a tie; the merge loop finishes the tail (1
/// op per comparison). The adaptive kind charges exactly these ops but runs
/// mark-and-probe on the host (seq::AdaptiveIntersect::FixedRow); this loop
/// is the reference for that charge, kept for the tests and
/// bench_micro_kernels.
[[nodiscard]] IntersectResult intersect_block_merge(
    std::span<const graph::VertexId> a, std::span<const graph::VertexId> b) noexcept;

/// Block-merge counterpart of intersect_merge_collect (same output
/// contract).
IntersectResult intersect_block_merge_collect(std::span<const graph::VertexId> a,
                                              std::span<const graph::VertexId> b,
                                              std::vector<graph::VertexId>& out);

/// Galloping (exponential-search) intersection: walk the smaller set and
/// gallop a monotone cursor through the larger one. Each probe first
/// compares the four elements at the cursor (1 charged op) and gallops
/// only beyond them. The probes share one forward-moving cursor, so the
/// cost adapts to the overlap pattern: O(small · log(large/small)) worst
/// case, near O(small) when matches cluster. ops = measured comparisons.
[[nodiscard]] IntersectResult intersect_galloping(
    std::span<const graph::VertexId> a, std::span<const graph::VertexId> b) noexcept;

/// Galloping counterpart of intersect_merge_collect (same output contract).
IntersectResult intersect_galloping_collect(std::span<const graph::VertexId> a,
                                            std::span<const graph::VertexId> b,
                                            std::vector<graph::VertexId>& out);

/// True when |small|-probe search is estimated cheaper than a linear merge
/// of both sets — the size crossover of the adaptive dispatcher.
[[nodiscard]] bool probe_search_pays_off(std::size_t size_a, std::size_t size_b) noexcept;

/// Per-thread reusable collect buffer: call sites that enumerate closing
/// vertices (LCC sinks, triangle enumeration) borrow this instead of
/// allocating a fresh std::vector per intersection. The reference stays
/// valid for the thread's lifetime; contents are clobbered by the next
/// borrower on the same thread.
[[nodiscard]] std::vector<graph::VertexId>& collect_scratch();

}  // namespace katric::seq
