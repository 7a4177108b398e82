#include "seq/adaptive_intersect.hpp"

#include <algorithm>
#include <bit>
#include <optional>

#include "util/assert.hpp"

namespace katric::seq {

namespace detail {

/// The marks of the row fixed on the calling thread: bit w of `words` is
/// set iff w is in the row, bit w of `maxima` iff w is one of its block
/// maxima a[4k+3] (adaptive rows only).
struct RowMarks {
    std::vector<std::uint64_t> words;
    std::vector<std::uint64_t> maxima;
    bool fixed = false;   ///< a row is fixed on this thread
    bool marked = false;  ///< and its bits are set
};

}  // namespace detail

namespace {

using graph::VertexId;
using Span = std::span<const VertexId>;

detail::RowMarks& thread_marks() noexcept {
    thread_local detail::RowMarks marks;
    return marks;
}

/// |{x ∈ row : x ≤ value}| by a binary search whose steps are conditional
/// moves, not branches.
std::size_t count_at_most(Span row, VertexId value) noexcept {
    if (row.empty()) { return 0; }
    const VertexId* base = row.data();
    for (std::size_t size = row.size(); size > 1;) {
        const std::size_t half = size / 2;
        base = base[half] <= value ? base + half : base;
        size -= half;
    }
    return static_cast<std::size_t>(base - row.data()) + (*base <= value ? 1 : 0);
}

/// Where the scalar merge's cursors stop on (a, b): the row with the
/// smaller last element runs out, and the other cursor sits at upper_bound
/// of that element in its row (both run out on a tie). Only b[0, j_end)
/// can match.
struct MergeStops {
    std::size_t i_end = 0;
    std::size_t j_end = 0;
};

MergeStops merge_stops(Span a, Span b) noexcept {
    if (a.empty() || b.empty()) { return {}; }
    if (a.back() <= b.back()) { return {a.size(), count_at_most(b, a.back())}; }
    return {count_at_most(a, b.back()), b.size()};
}

std::uint64_t marked(const std::uint64_t* bits, VertexId w) noexcept {
    return (bits[w >> 6] >> (w & 63)) & 1u;
}

void set_bit(std::vector<std::uint64_t>& bits, VertexId w) noexcept {
    bits[w >> 6] |= std::uint64_t{1} << (w & 63);
}

/// The marked elements of b[from, to): their number, and, collecting, the
/// elements themselves appended to `out` in b's order. Branch-free: every
/// candidate is written and the cursor only moves past a match.
template <bool kCollect>
std::uint64_t probe(const std::uint64_t* words, Span b, std::size_t from, std::size_t to,
                    std::vector<VertexId>* out) {
    std::uint64_t matches = 0;
    if constexpr (kCollect) {
        const std::size_t base = out->size();
        out->resize(base + (to - from));
        VertexId* cursor = out->data() + base;
        for (std::size_t j = from; j < to; ++j) {
            *cursor = b[j];
            cursor += marked(words, b[j]);
        }
        matches = static_cast<std::uint64_t>(cursor - (out->data() + base));
        out->resize(base + matches);
    } else {
        for (std::size_t j = from; j < to; ++j) { matches += marked(words, b[j]); }
    }
    return matches;
}

/// The merge kind's partner: intersect_merge's matches and ops.
template <bool kCollect>
IntersectResult merge_probe(const detail::RowMarks& marks, Span a, Span b,
                            std::vector<VertexId>* out) {
    const MergeStops stops = merge_stops(a, b);
    const std::uint64_t matches = probe<kCollect>(marks.words.data(), b, 0, stops.j_end, out);
    return {matches, stops.i_end + stops.j_end - matches};
}

/// The adaptive block-merge partner: intersect_block_merge's matches and
/// ops (see FixedRow for the charge).
template <bool kCollect>
IntersectResult block_probe(const detail::RowMarks& marks, Span a, Span b,
                            std::vector<VertexId>* out) {
    const std::size_t a_blocks = a.size() / 4;
    const std::size_t b_blocks = b.size() / 4;
    if (a_blocks == 0 || b_blocks == 0) { return merge_probe<kCollect>(marks, a, b, out); }
    // The blocks stop at the smaller of the two last block maxima, `low`.
    const VertexId low = std::min(a[4 * a_blocks - 1], b[4 * b_blocks - 1]);
    const std::size_t x_end = count_at_most(a, low) / 4;
    const std::size_t b_low = count_at_most(b, low);
    const std::size_t y_end = b_low / 4;
    std::uint64_t ties = 0;
    for (std::size_t j = 3; j < 4 * y_end; j += 4) {
        ties += marked(marks.maxima.data(), b[j]);
    }
    // Marks above `low` are the tail's matches; those below were matched
    // inside a block.
    const MergeStops stops = merge_stops(a, b);
    const std::uint64_t block_matches =
        probe<kCollect>(marks.words.data(), b, 0, b_low, out);
    const std::uint64_t tail_matches =
        probe<kCollect>(marks.words.data(), b, b_low, stops.j_end, out);
    IntersectResult result{block_matches + tail_matches,
                           kSimdMergeBlockOps * (x_end + y_end - ties)};
    const std::size_t i = 4 * x_end;
    const std::size_t j = 4 * y_end;
    if (i < a.size() && j < b.size()) {
        result.ops += std::max(stops.i_end, i) - i + std::max(stops.j_end, j) - j
                      - tail_matches;
    }
    return result;
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
    // operands — the vast majority of calls — skip the slot lookup entirely;
    // candidates resolve slot and row identity in one lookup.
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
    : isect_(isect), a_(a), a_id_(a_id), marks_(thread_marks()) {
    KATRIC_ASSERT_MSG(!marks_.fixed, "a row is already fixed on this thread");
    if (isect.kind_ == IntersectKind::kMerge) { mark(); }
    marks_.fixed = true;
}

void AdaptiveIntersect::FixedRow::mark() const {
    // Grow first: a throw leaves no bit set and the row unmarked.
    const bool maxima = isect_.kind_ == IntersectKind::kAdaptive;
    const std::size_t words = a_.empty() ? 0 : (a_.back() >> 6) + 1;
    if (marks_.words.size() < words) { marks_.words.resize(words, 0); }
    if (maxima && marks_.maxima.size() < words) { marks_.maxima.resize(words, 0); }
    for (const VertexId w : a_) { set_bit(marks_.words, w); }
    for (std::size_t i = 3; maxima && i < a_.size(); i += 4) {
        set_bit(marks_.maxima, a_[i]);
    }
    marks_.marked = true;
}

AdaptiveIntersect::FixedRow::~FixedRow() {
    if (marks_.marked) {
        // Only this row's bits are set, so clearing whole words is exact.
        for (const VertexId w : a_) { marks_.words[w >> 6] = 0; }
        const bool maxima = isect_.kind_ == IntersectKind::kAdaptive;
        for (std::size_t i = 3; maxima && i < a_.size(); i += 4) {
            marks_.maxima[a_[i] >> 6] = 0;
        }
        marks_.marked = false;
    }
    marks_.fixed = false;
}

template <bool kCollect>
IntersectResult AdaptiveIntersect::FixedRow::dispatch(Span b, std::vector<VertexId>* out,
                                                      VertexId b_id) const {
    const std::size_t smaller = std::min(a_.size(), b.size());
    obs::KernelStats* stats = isect_.stats_;
    if (isect_.kind_ == IntersectKind::kMerge) {
        isect_.note(obs::KernelChoice::kMerge, smaller);
        return merge_probe<kCollect>(marks_, a_, b, out);
    }
    const HubBitmapIndex* hubs = isect_.hubs_;
    obs::KernelChoice bitmap_choice = obs::KernelChoice::kBitmapProbe;
    if (auto r = try_bitmap<kCollect>(hubs, a_, b, a_id_, b_id, out, bitmap_choice)) {
        if (stats != nullptr) {
            ++stats->hub_hits;
            stats->record(bitmap_choice, smaller);
        }
        return *r;
    }
    if (stats != nullptr && hubs != nullptr && !hubs->empty()) { ++stats->hub_misses; }
    if (probe_search_pays_off(a_.size(), b.size())) {
        isect_.note(obs::KernelChoice::kGalloping, smaller);
        if constexpr (kCollect) {
            return intersect_galloping_collect(a_, b, *out);
        } else {
            return intersect_galloping(a_, b);
        }
    }
    isect_.note(obs::KernelChoice::kSimdMerge, smaller);
    if (!marks_.marked) { mark(); }
    return block_probe<kCollect>(marks_, a_, b, out);
}

IntersectResult AdaptiveIntersect::FixedRow::count(Span b, VertexId b_id) const {
    return dispatch<false>(b, nullptr, b_id);
}

IntersectResult AdaptiveIntersect::FixedRow::collect(Span b, std::vector<VertexId>& out,
                                                     VertexId b_id) const {
    return dispatch<true>(b, &out, b_id);
}

std::size_t merge_marks_set_on_this_thread() noexcept {
    std::size_t set = 0;
    const auto& marks = thread_marks();
    for (const auto* bits : {&marks.words, &marks.maxima}) {
        for (const std::uint64_t word : *bits) {
            set += static_cast<std::size_t>(std::popcount(word));
        }
    }
    return set;
}

}  // namespace katric::seq
