#pragma once

#include <span>
#include <vector>

#include "graph/types.hpp"
#include "obs/kernel_stats.hpp"
#include "seq/bitmap_index.hpp"
#include "seq/intersection.hpp"

namespace katric::seq {

namespace detail {
struct RowMarks;
}  // namespace detail

/// Per-intersection kernel dispatcher — the one object every counting path
/// talks to instead of raw IntersectKind plumbing. Given the two operand
/// spans (and, when known, their vertex IDs for hub lookup), it picks:
///
///   kind        | decision
///   ------------+------------------------------------------------------
///   merge       | mark-and-probe, charged the scalar merge's comparisons
///   adaptive    | hub bitmap if indexed; else galloping when
///               | probe_search_pays_off(|a|,|b|); else block merge,
///               | run as mark-and-probe and charged as the 4×4 block
///               | merge (intersect_block_merge)
///
/// For the bitmap path, hub∩hub additionally compares the word-AND cost
/// against probing the smaller row and takes the cheaper one. All kernels
/// return exactly the same count/elements; only the measured `ops` — and
/// therefore the simulated compute charge — differ.
///
/// The counting loops intersect one row against many partners, so the
/// dispatcher also has a fixed-row form: `auto row = isect.fix(a, a_id)`,
/// then `row.count(b, b_id)` / `row.collect(b, out, b_id)` per partner.
/// A merge row, and an adaptive row at its first block-merge partner, marks
/// `a` in bitmaps owned by the calling thread and probes each partner
/// against them (see FixedRow); the two-span count/collect below fix `a`
/// for one call, so each kernel has one host implementation. Operand rows
/// must be strictly increasing vertex IDs.
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
    /// the returned row, which must not outlive `a`. `a` holds vertex IDs,
    /// never flag-annotated words: its elements index the mark bitmaps. At
    /// most one row, of either kind, may be fixed per thread at a time: a
    /// second fix (or a two-span count/collect inside a fixed row) fails
    /// with KATRIC_ASSERT.
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
    void note(obs::KernelChoice choice, std::size_t smaller) const noexcept {
        if (stats_ != nullptr) { stats_->record(choice, smaller); }
    }

    IntersectKind kind_ = IntersectKind::kMerge;
    const HubBitmapIndex* hubs_ = nullptr;
    obs::KernelStats* stats_ = nullptr;
};

/// One row intersected against many partners.
///
/// Marks: the row sets bit w of the calling thread's mark bitmap for every
/// w in `a` — a merge row when it is fixed, an adaptive row lazily, at its
/// first block-merge partner, so a row whose partners all hit a hub bitmap
/// or gallop pays nothing. An adaptive row also marks its block maxima
/// a[4k+3] in a second bitmap. Each bitmap spans the vertex universe (n/8
/// bytes per thread) and grows on demand; the destructor clears the row's
/// bits again, also when an exception unwinds the scope. A partner b is
/// probed branch-free up to upper_bound(b, a.back()), so matches come out
/// in b's ascending order.
///
/// Charges, computed from where the reference kernels' cursors stop:
/// - merge: exactly intersect_merge's comparisons, ops = i_end + j_end −
///   matches, where one cursor sits at its row's end and the other at
///   upper_bound of that row's last element;
/// - adaptive block merge: exactly intersect_block_merge's ops. Its blocks
///   take one staircase step per distinct block maximum up to `low`, the
///   smaller of the two rows' last block maxima: x_end + y_end − ties,
///   where x_end (y_end) counts a's (b's) block maxima up to `low` and a
///   tie is a maximum of b marked in the maxima bitmap. Each step costs
///   kSimdMergeBlockOps; the scalar tail from (4·x_end, 4·y_end) is charged
///   by the merge formula, its matches being the marked elements of b
///   above `low`.
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

    /// Sets the row's bits (and, adaptive, its maxima's) in the marks.
    void mark() const;

    /// The decision table above, written once: count() instantiates it
    /// without an output vector, collect() with one.
    template <bool kCollect>
    IntersectResult dispatch(std::span<const graph::VertexId> b,
                             std::vector<graph::VertexId>* out,
                             graph::VertexId b_id) const;

    AdaptiveIntersect isect_;
    std::span<const graph::VertexId> a_;
    graph::VertexId a_id_;
    detail::RowMarks& marks_;  ///< the calling thread's bitmaps
};

/// Test hook: the number of bits set in the calling thread's mark bitmaps
/// — zero whenever no row is fixed on this thread, and zero while a fixed
/// adaptive row has not yet met a block-merge partner.
[[nodiscard]] std::size_t merge_marks_set_on_this_thread() noexcept;

}  // namespace katric::seq
