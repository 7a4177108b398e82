#include "seq/intersection.hpp"

#include <algorithm>

#include "seq/intersection_simd.hpp"
#include "util/assert.hpp"
#include "util/bits.hpp"

namespace katric::seq {

namespace {

using graph::VertexId;
using Span = std::span<const VertexId>;

// Every kernel below is written once and instantiated with one of two
// emit policies: Count ignores the matches, Collect appends them to an
// output vector in ascending order. The choice is made at compile time, so
// the counting loops carry no per-match branch.
struct Count {
    void operator()(VertexId /*match*/) const noexcept {}
};
struct Collect {
    std::vector<VertexId>& out;
    void operator()(VertexId match) const { out.push_back(match); }
};

/// The merge loop from (i, j) on: two cursors, one op per comparison.
template <typename Emit>
void merge_from(Span a, Span b, std::size_t i, std::size_t j, IntersectResult& result,
                Emit emit) {
    while (i < a.size() && j < b.size()) {
        ++result.ops;
        if (a[i] < b[j]) {
            ++i;
        } else if (b[j] < a[i]) {
            ++j;
        } else {
            ++result.count;
            emit(a[i]);
            ++i;
            ++j;
        }
    }
}

/// The block merge: while both rows have a full 4-element block left,
/// compare the two blocks all-pairs (kSimdMergeBlockOps) and advance the
/// block with the smaller maximum (both on a tie); the merge loop finishes
/// the tail. Every cell on the staircase is visited once, so no match is
/// counted twice, and the cells come in ascending order.
template <typename Emit>
IntersectResult block_merge_kernel(Span a, Span b, Emit emit) {
    IntersectResult result;
    std::size_t i = 0;
    std::size_t j = 0;
    while (i + 4 <= a.size() && j + 4 <= b.size()) {
        result.ops += kSimdMergeBlockOps;
        for (std::size_t lane = i; lane < i + 4; ++lane) {
            if (std::find(b.begin() + j, b.begin() + j + 4, a[lane]) != b.begin() + j + 4) {
                ++result.count;
                emit(a[lane]);
            }
        }
        const VertexId a_max = a[i + 3];
        const VertexId b_max = b[j + 3];
        if (a_max <= b_max) { i += 4; }
        if (b_max <= a_max) { j += 4; }
    }
    merge_from(a, b, i, j, result, emit);
    return result;
}

/// Index of the first element of `haystack` at or past `from` that is
/// ≥ `needle` (gallop + binary refinement), counting every comparison into
/// `ops`.
std::size_t gallop_lower_bound(Span haystack, std::size_t from, VertexId needle,
                               std::uint64_t& ops) noexcept {
    if (from >= haystack.size()) { return haystack.size(); }
    ++ops;
    if (haystack[from] >= needle) { return from; }
    // Exponential probe: windows [from+step/2, from+step] double until one
    // straddles the needle (or the end).
    std::size_t step = 1;
    std::size_t lo = from;
    std::size_t hi;
    while (true) {
        hi = from + step;
        if (hi >= haystack.size()) {
            hi = haystack.size();
            break;
        }
        ++ops;
        if (haystack[hi] >= needle) { break; }
        lo = hi;
        step *= 2;
    }
    // Binary refinement inside (lo, hi): haystack[lo] < needle ≤ haystack[hi].
    ++lo;
    while (lo < hi) {
        const std::size_t mid = lo + (hi - lo) / 2;
        ++ops;
        if (haystack[mid] < needle) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    return lo;
}

/// First index at or past `pos` whose element is ≥ x. The four elements at
/// the cursor are compared first (1 charged op), which settles most probes;
/// the gallop only runs beyond them.
std::size_t seek(Span large, std::size_t pos, VertexId x, std::uint64_t& ops) noexcept {
    if (pos + 4 <= large.size()) {
        ++ops;
        const std::size_t less = static_cast<std::size_t>(large[pos] < x)
                                 + static_cast<std::size_t>(large[pos + 1] < x)
                                 + static_cast<std::size_t>(large[pos + 2] < x)
                                 + static_cast<std::size_t>(large[pos + 3] < x);
        if (less < 4) { return pos + less; }
        return gallop_lower_bound(large, pos + 4, x, ops);
    }
    return gallop_lower_bound(large, pos, x, ops);
}

/// The galloping kernel: walk the smaller operand (`a` on ties) and move
/// one monotone cursor through the larger one.
template <typename Emit>
IntersectResult gallop_kernel(Span a, Span b, Emit emit) {
    const bool a_small = a.size() <= b.size();
    const Span small = a_small ? a : b;
    const Span large = a_small ? b : a;
    IntersectResult result;
    std::size_t pos = 0;
    for (const VertexId x : small) {
        pos = seek(large, pos, x, result.ops);
        if (pos == large.size()) { break; }  // every later probe is larger still
        ++result.ops;
        if (large[pos] == x) {
            ++result.count;
            emit(x);
            ++pos;
        }
    }
    return result;
}

}  // namespace

bool simd_available() noexcept { return false; }

IntersectResult intersect_merge(Span a, Span b) noexcept {
    IntersectResult result;
    merge_from(a, b, 0, 0, result, Count{});
    return result;
}

IntersectResult intersect_merge_collect(Span a, Span b, std::vector<VertexId>& out) {
    IntersectResult result;
    merge_from(a, b, 0, 0, result, Collect{out});
    return result;
}

IntersectResult intersect_block_merge(Span a, Span b) noexcept {
    return block_merge_kernel(a, b, Count{});
}

IntersectResult intersect_block_merge_collect(Span a, Span b, std::vector<VertexId>& out) {
    return block_merge_kernel(a, b, Collect{out});
}

IntersectResult intersect_galloping(Span a, Span b) noexcept {
    return gallop_kernel(a, b, Count{});
}

IntersectResult intersect_galloping_collect(Span a, Span b, std::vector<VertexId>& out) {
    return gallop_kernel(a, b, Collect{out});
}

bool probe_search_pays_off(std::size_t size_a, std::size_t size_b) noexcept {
    const std::size_t small = std::min(size_a, size_b);
    const std::size_t large = std::max(size_a, size_b);
    return small + large > small * (katric::ceil_log2(large + 1) + 1);
}

std::string intersect_kind_name(IntersectKind kind) {
    switch (kind) {
        case IntersectKind::kMerge: return "merge";
        case IntersectKind::kAdaptive: return "adaptive";
    }
    return "unknown";
}

IntersectKind parse_intersect_kind(const std::string& name) {
    for (const auto kind : all_intersect_kinds()) {
        if (intersect_kind_name(kind) == name) { return kind; }
    }
    KATRIC_THROW("unknown intersect kind '" << name << "' (merge|adaptive)");
}

const std::vector<IntersectKind>& all_intersect_kinds() {
    static const std::vector<IntersectKind> kinds = {IntersectKind::kMerge,
                                                     IntersectKind::kAdaptive};
    return kinds;
}

std::vector<VertexId>& collect_scratch() {
    thread_local std::vector<VertexId> scratch;
    return scratch;
}

}  // namespace katric::seq
