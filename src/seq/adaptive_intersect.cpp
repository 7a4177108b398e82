#include "seq/adaptive_intersect.hpp"

#include <algorithm>
#include <bit>
#include <optional>

#include "util/assert.hpp"

namespace katric::seq {

namespace detail {

/// The merge kind's mark bitmap, one per host thread: bit w is set iff w is
/// in the row fixed by the thread's live merge FixedRow.
struct MergeMarks {
    std::vector<std::uint64_t> words;
    bool fixed = false;
};

}  // namespace detail

namespace {

using graph::VertexId;
using Span = std::span<const VertexId>;

detail::MergeMarks& thread_marks() noexcept {
    thread_local detail::MergeMarks marks;
    return marks;
}

/// Where the scalar merge's cursors stop on (a, b): the row with the
/// smaller last element runs out, and the other cursor sits at upper_bound
/// of that element in its row (both run out on a tie). Only b[0, j_end)
/// can match.
struct MergeStops {
    std::size_t i_end = 0;
    std::size_t j_end = 0;
};

std::size_t count_at_most(Span row, VertexId x) noexcept {
    return static_cast<std::size_t>(std::upper_bound(row.begin(), row.end(), x)
                                    - row.begin());
}

MergeStops merge_stops(Span a, Span b) noexcept {
    if (a.empty() || b.empty()) { return {}; }
    if (a.back() <= b.back()) { return {a.size(), count_at_most(b, a.back())}; }
    return {count_at_most(a, b.back()), b.size()};
}

std::uint64_t marked(const std::uint64_t* words, VertexId w) noexcept {
    return (words[w >> 6] >> (w & 63)) & 1u;
}

IntersectResult probe_count(const std::uint64_t* words, Span a, Span b) noexcept {
    const MergeStops stops = merge_stops(a, b);
    std::uint64_t matches = 0;
    for (std::size_t j = 0; j < stops.j_end; ++j) { matches += marked(words, b[j]); }
    return {matches, stops.i_end + stops.j_end - matches};
}

IntersectResult probe_collect(const std::uint64_t* words, Span a, Span b,
                              std::vector<VertexId>& out) {
    const MergeStops stops = merge_stops(a, b);
    const std::size_t base = out.size();
    out.resize(base + stops.j_end);
    // Every candidate is written; the cursor only moves past a match.
    VertexId* cursor = out.data() + base;
    for (std::size_t j = 0; j < stops.j_end; ++j) {
        *cursor = b[j];
        cursor += marked(words, b[j]);
    }
    const auto matches = static_cast<std::uint64_t>(cursor - (out.data() + base));
    out.resize(base + matches);
    return {matches, stops.i_end + stops.j_end - matches};
}

/// Resolves which side (if any) can be served from the hub index. Returns
/// the intersection result, or nullopt when neither row is covered. On
/// success `choice` reports which bitmap kernel ran.
template <bool kCollect>
std::optional<IntersectResult> try_bitmap(const HubBitmapIndex* hubs, Span a, Span b,
                                          VertexId a_id, VertexId b_id,
                                          std::vector<VertexId>* out,
                                          obs::KernelChoice& choice) {
    if (hubs == nullptr || hubs->empty()) { return std::nullopt; }
    // No row shorter than the smallest indexed row can be covered, so such
    // operands — the vast majority of calls — skip the hash probe entirely;
    // candidates resolve slot + covers() in one lookup.
    const auto gate = hubs->min_indexed_row();
    const auto* a_hub = a_id != graph::kInvalidVertex && a.size() >= gate
                            ? hubs->lookup(a_id, a)
                            : nullptr;
    const auto* b_hub = b_id != graph::kInvalidVertex && b.size() >= gate
                            ? hubs->lookup(b_id, b)
                            : nullptr;
    if constexpr (!kCollect) {
        // Word-AND + popcount, unless probing the smaller row through the
        // other's bitmap is cheaper (sparse rows in a large universe).
        if (a_hub != nullptr && b_hub != nullptr
            && hubs->words_per_row() <= std::min(a.size(), b.size())) {
            choice = obs::KernelChoice::kBitmapHubHub;
            return hubs->intersect_hub_hub(*a_hub, *b_hub);
        }
    }
    // Probe the (typically smaller) non-hub side through the other's bitmap.
    const bool through_b = b_hub != nullptr && !(a_hub != nullptr && a.size() > b.size());
    if (!through_b && a_hub == nullptr) { return std::nullopt; }
    const auto& hub = through_b ? *b_hub : *a_hub;
    const Span probe = through_b ? a : b;
    choice = obs::KernelChoice::kBitmapProbe;
    if constexpr (kCollect) {
        return hubs->intersect_collect(hub, probe, *out);
    } else {
        return hubs->intersect_count(hub, probe);
    }
}

}  // namespace

template <bool kCollect>
IntersectResult AdaptiveIntersect::dispatch(Span a, Span b, std::vector<VertexId>* out,
                                            VertexId a_id, VertexId b_id) const {
    const std::size_t smaller = std::min(a.size(), b.size());
    const auto run = [&](obs::KernelChoice choice, auto count_kernel,
                         auto collect_kernel) {
        note(choice, smaller);
        if constexpr (kCollect) {
            return collect_kernel(a, b, *out);
        } else {
            return count_kernel(a, b);
        }
    };
    obs::KernelChoice bitmap_choice = obs::KernelChoice::kBitmapProbe;
    if (auto r = try_bitmap<kCollect>(hubs_, a, b, a_id, b_id, out, bitmap_choice)) {
        if (stats_ != nullptr) {
            ++stats_->hub_hits;
            stats_->record(bitmap_choice, smaller);
        }
        return *r;
    }
    if (stats_ != nullptr && hubs_ != nullptr && !hubs_->empty()) {
        ++stats_->hub_misses;
    }
    if (probe_search_pays_off(a.size(), b.size())) {
        return run(obs::KernelChoice::kGalloping, intersect_simd_galloping,
                   intersect_simd_galloping_collect);
    }
    return run(obs::KernelChoice::kSimdMerge, intersect_simd_merge,
               intersect_simd_merge_collect);
}

AdaptiveIntersect::FixedRow AdaptiveIntersect::fix(Span a, VertexId a_id) const {
    return FixedRow(*this, a, a_id);
}

IntersectResult AdaptiveIntersect::count(Span a, Span b, VertexId a_id,
                                         VertexId b_id) const {
    return fix(a, a_id).count(b, b_id);
}

IntersectResult AdaptiveIntersect::collect(Span a, Span b, std::vector<VertexId>& out,
                                           VertexId a_id, VertexId b_id) const {
    return fix(a, a_id).collect(b, out, b_id);
}

AdaptiveIntersect::FixedRow::FixedRow(const AdaptiveIntersect& isect, Span a,
                                      VertexId a_id)
    : isect_(isect), a_(a), a_id_(a_id) {
    if (isect.kind_ != IntersectKind::kMerge) { return; }
    auto& marks = thread_marks();
    KATRIC_ASSERT_MSG(!marks.fixed, "a merge row is already fixed on this thread");
    if (!a.empty() && marks.words.size() <= a.back() >> 6) {
        marks.words.resize((a.back() >> 6) + 1, 0);
    }
    for (const VertexId w : a) { marks.words[w >> 6] |= std::uint64_t{1} << (w & 63); }
    marks.fixed = true;
    marks_ = &marks;
}

AdaptiveIntersect::FixedRow::~FixedRow() {
    if (marks_ == nullptr) { return; }
    // Only this row's bits are set, so clearing whole words is exact.
    for (const VertexId w : a_) { marks_->words[w >> 6] = 0; }
    marks_->fixed = false;
}

IntersectResult AdaptiveIntersect::FixedRow::count(Span b, VertexId b_id) const {
    if (marks_ == nullptr) { return isect_.dispatch<false>(a_, b, nullptr, a_id_, b_id); }
    isect_.note(obs::KernelChoice::kMerge, std::min(a_.size(), b.size()));
    return probe_count(marks_->words.data(), a_, b);
}

IntersectResult AdaptiveIntersect::FixedRow::collect(Span b, std::vector<VertexId>& out,
                                                     VertexId b_id) const {
    if (marks_ == nullptr) { return isect_.dispatch<true>(a_, b, &out, a_id_, b_id); }
    isect_.note(obs::KernelChoice::kMerge, std::min(a_.size(), b.size()));
    return probe_collect(marks_->words.data(), a_, b, out);
}

std::size_t merge_marks_set_on_this_thread() noexcept {
    std::size_t set = 0;
    for (const std::uint64_t word : thread_marks().words) {
        set += static_cast<std::size_t>(std::popcount(word));
    }
    return set;
}

}  // namespace katric::seq
