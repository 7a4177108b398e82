#pragma once

#include <span>
#include <vector>

#include "graph/types.hpp"
#include "obs/kernel_stats.hpp"
#include "seq/bitmap_index.hpp"
#include "seq/intersection.hpp"
#include "seq/intersection_simd.hpp"

namespace katric::seq {

namespace detail {
struct MergeMarks;
}  // namespace detail

/// Per-intersection kernel dispatcher — the one object every counting path
/// talks to instead of raw IntersectKind plumbing. Given the two operand
/// spans (and, when known, their vertex IDs for hub lookup), it picks:
///
///   kind        | decision
///   ------------+------------------------------------------------------
///   merge       | mark-and-probe, charged the scalar merge's comparisons
///   adaptive    | hub bitmap if indexed; else galloping (SIMD front scan
///               | when available) when probe_search_pays_off(|a|,|b|);
///               | else SIMD block merge (scalar merge when unavailable)
///
/// For the bitmap path, hub∩hub additionally compares the word-AND cost
/// against probing the smaller row and takes the cheaper one. All kernels
/// return exactly the same count/elements; only the measured `ops` — and
/// therefore the simulated compute charge — differ.
///
/// The counting loops intersect one row against many partners, so the
/// dispatcher also has a fixed-row form: `auto row = isect.fix(a, a_id)`,
/// then `row.count(b, b_id)` / `row.collect(b, out, b_id)` per partner.
/// For merge, the fix marks `a` in a bitmap owned by the calling thread and
/// each partner is probed against it (see FixedRow); the two-span
/// count/collect below fix `a` for one call, so merge has one host
/// implementation. Operand rows must be strictly increasing.
///
/// When an obs::KernelStats sink is attached, every call additionally
/// records the kernel that actually fired (bucketed by smaller-operand
/// size) and, on kAdaptive, whether the hub index served the call — the
/// dispatch-mix telemetry behind crossover tuning. With the default null
/// sink the recording branch is a single predictable test.
class AdaptiveIntersect {
public:
    class FixedRow;

    AdaptiveIntersect() = default;
    explicit AdaptiveIntersect(IntersectKind kind, const HubBitmapIndex* hubs = nullptr,
                               obs::KernelStats* stats = nullptr) noexcept
        : kind_(kind), hubs_(hubs), stats_(stats) {}

    [[nodiscard]] IntersectKind kind() const noexcept { return kind_; }
    [[nodiscard]] const HubBitmapIndex* hubs() const noexcept { return hubs_; }
    [[nodiscard]] obs::KernelStats* stats() const noexcept { return stats_; }

    /// Fixes `a` as the left operand of every following count/collect on
    /// the returned row, which must not outlive `a`. With merge, at most
    /// one row may be fixed per thread at a time: a second fix fails with
    /// KATRIC_ASSERT.
    [[nodiscard]] FixedRow fix(std::span<const graph::VertexId> a,
                               graph::VertexId a_id = graph::kInvalidVertex) const;

    /// Count-only intersection. Pass the operands' vertex IDs when known —
    /// kInvalidVertex (the default) skips hub lookup for that side.
    [[nodiscard]] IntersectResult count(
        std::span<const graph::VertexId> a, std::span<const graph::VertexId> b,
        graph::VertexId a_id = graph::kInvalidVertex,
        graph::VertexId b_id = graph::kInvalidVertex) const;

    /// Collect variant: appends the common elements to `out` in ascending
    /// order (the merge-collect contract, honored by every kernel).
    IntersectResult collect(std::span<const graph::VertexId> a,
                            std::span<const graph::VertexId> b,
                            std::vector<graph::VertexId>& out,
                            graph::VertexId a_id = graph::kInvalidVertex,
                            graph::VertexId b_id = graph::kInvalidVertex) const;

private:
    /// The adaptive decision table above, written once: count()
    /// instantiates it without an output vector, collect() with one.
    template <bool kCollect>
    IntersectResult dispatch(std::span<const graph::VertexId> a,
                             std::span<const graph::VertexId> b,
                             std::vector<graph::VertexId>* out, graph::VertexId a_id,
                             graph::VertexId b_id) const;

    void note(obs::KernelChoice choice, std::size_t smaller) const noexcept {
        if (stats_ != nullptr) { stats_->record(choice, smaller); }
    }

    IntersectKind kind_ = IntersectKind::kMerge;
    const HubBitmapIndex* hubs_ = nullptr;
    obs::KernelStats* stats_ = nullptr;
};

/// One row intersected against many partners.
///
/// merge: the constructor sets bit w of the calling thread's mark bitmap
/// for every w in `a` (the bitmap spans the vertex universe, n/8 bytes per
/// thread, and grows on demand); the destructor clears them again, also
/// when an exception unwinds the scope. A partner b is probed branch-free
/// up to upper_bound(b, a.back()), so matches come out in b's ascending
/// order. The charged ops are exactly the scalar merge's comparisons
/// (intersect_merge), which follow from where its two cursors stop:
/// ops = i_end + j_end − matches, where one cursor sits at its row's end
/// and the other at upper_bound of that row's last element.
///
/// adaptive: each partner goes through the decision table unchanged.
class AdaptiveIntersect::FixedRow {
public:
    FixedRow(const FixedRow&) = delete;
    FixedRow& operator=(const FixedRow&) = delete;
    ~FixedRow();

    [[nodiscard]] IntersectResult count(
        std::span<const graph::VertexId> b,
        graph::VertexId b_id = graph::kInvalidVertex) const;

    IntersectResult collect(std::span<const graph::VertexId> b,
                            std::vector<graph::VertexId>& out,
                            graph::VertexId b_id = graph::kInvalidVertex) const;

private:
    friend class AdaptiveIntersect;
    FixedRow(const AdaptiveIntersect& isect, std::span<const graph::VertexId> a,
             graph::VertexId a_id);

    AdaptiveIntersect isect_;
    std::span<const graph::VertexId> a_;
    graph::VertexId a_id_;
    detail::MergeMarks* marks_ = nullptr;  ///< the thread's bitmap, merge only
};

/// Test hook: the number of bits set in the calling thread's merge mark
/// bitmap — zero whenever no merge row is fixed on this thread.
[[nodiscard]] std::size_t merge_marks_set_on_this_thread() noexcept;

}  // namespace katric::seq
