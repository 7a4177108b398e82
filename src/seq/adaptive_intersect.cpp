#include "seq/adaptive_intersect.hpp"

#include <algorithm>
#include <optional>

namespace katric::seq {

namespace {

using graph::VertexId;
using Span = std::span<const VertexId>;

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
    if (kind_ == IntersectKind::kMerge) {
        return run(obs::KernelChoice::kMerge, intersect_merge, intersect_merge_collect);
    }
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

IntersectResult AdaptiveIntersect::count(Span a, Span b, VertexId a_id,
                                         VertexId b_id) const {
    return dispatch<false>(a, b, nullptr, a_id, b_id);
}

IntersectResult AdaptiveIntersect::collect(Span a, Span b, std::vector<VertexId>& out,
                                           VertexId a_id, VertexId b_id) const {
    return dispatch<true>(a, b, &out, a_id, b_id);
}

}  // namespace katric::seq
