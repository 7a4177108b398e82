#include "seq/intersection.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdlib>

#include "seq/intersection_simd.hpp"
#include "util/assert.hpp"
#include "util/bits.hpp"

#if defined(KATRIC_ENABLE_SIMD) && (defined(__x86_64__) || defined(_M_X64)) \
    && (defined(__GNUC__) || defined(__clang__))
#define KATRIC_SIMD_X86 1
#include <immintrin.h>
#else
#define KATRIC_SIMD_X86 0
#endif

namespace katric::seq {

namespace {

using graph::VertexId;
using Span = std::span<const VertexId>;

std::atomic<bool> g_force_scalar{false};

bool cpu_has_avx2() noexcept {
#if KATRIC_SIMD_X86
    // Cached once: cpuid is not free and the answer never changes. The
    // KATRIC_FORCE_SCALAR env var is the headless/CI override.
    static const bool supported = [] {
        if (const char* env = std::getenv("KATRIC_FORCE_SCALAR");
            env != nullptr && env[0] != '\0' && env[0] != '0') {
            return false;
        }
        return __builtin_cpu_supports("avx2") != 0;
    }();
    return supported;
#else
    return false;
#endif
}

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

#if KATRIC_SIMD_X86

/// 4-bit lane mask (bit k set ⇔ lane k of `match` is all-ones).
__attribute__((target("avx2"))) inline int lane_mask(__m256i match) noexcept {
    return _mm256_movemask_pd(_mm256_castsi256_pd(match));
}

/// All-pairs equality of two 4×64 blocks: bit k of the result is set iff
/// va's lane k equals *some* lane of vb (three lane rotations cover every
/// pairing). Sorted duplicate-free inputs guarantee at most one partner per
/// lane, so the popcount of the mask is the number of matching pairs.
__attribute__((target("avx2"))) inline int block_match_mask(__m256i va,
                                                            __m256i vb) noexcept {
    __m256i match = _mm256_cmpeq_epi64(va, vb);
    __m256i rot = _mm256_permute4x64_epi64(vb, _MM_SHUFFLE(0, 3, 2, 1));
    match = _mm256_or_si256(match, _mm256_cmpeq_epi64(va, rot));
    rot = _mm256_permute4x64_epi64(vb, _MM_SHUFFLE(1, 0, 3, 2));
    match = _mm256_or_si256(match, _mm256_cmpeq_epi64(va, rot));
    rot = _mm256_permute4x64_epi64(vb, _MM_SHUFFLE(2, 1, 0, 3));
    match = _mm256_or_si256(match, _mm256_cmpeq_epi64(va, rot));
    return lane_mask(match);
}

/// Block merge over full 4-lane blocks; the caller finishes the scalar tail
/// from the returned (i, j). Every (a-block, b-block) cell on the staircase
/// is visited exactly once, so counting matches per cell never double
/// counts, and lane-order emission keeps collect output ascending.
template <typename Emit>
__attribute__((target("avx2"))) void block_merge_avx2(Span a, Span b, std::size_t& i,
                                                      std::size_t& j,
                                                      IntersectResult& result,
                                                      Emit emit) {
    while (i + 4 <= a.size() && j + 4 <= b.size()) {
        const __m256i va =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a.data() + i));
        const __m256i vb =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b.data() + j));
        const int mask = block_match_mask(va, vb);
        result.ops += kSimdMergeBlockOps;
        if (mask != 0) {
            result.count += static_cast<std::uint64_t>(std::popcount(
                static_cast<unsigned>(mask)));
            for (unsigned lane = 0; lane < 4; ++lane) {
                if ((mask & (1 << lane)) != 0) { emit(a[i + lane]); }
            }
        }
        const VertexId a_max = a[i + 3];
        const VertexId b_max = b[j + 3];
        if (a_max <= b_max) { i += 4; }
        if (b_max <= a_max) { j += 4; }
    }
}

/// One 4-lane window compare at `pos`: returns how many of the four
/// elements are < needle (0…4). Sorted input makes the lane mask a
/// contiguous low-bit run, so popcount is the in-window lower bound.
/// AVX2 only has a *signed* 64-bit compare; XOR-ing both sides with the
/// sign bit maps unsigned order onto signed order, so IDs with bit 63 set
/// (e.g. flag-annotated words) still compare exactly like the scalar
/// kernels.
__attribute__((target("avx2"))) inline unsigned window_less_count(
    const VertexId* data, VertexId needle) noexcept {
    const __m256i sign = _mm256_set1_epi64x(static_cast<long long>(1ull << 63));
    const __m256i window = _mm256_xor_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(data)), sign);
    const __m256i pivot =
        _mm256_xor_si256(_mm256_set1_epi64x(static_cast<long long>(needle)), sign);
    const int less = lane_mask(_mm256_cmpgt_epi64(pivot, window));
    return static_cast<unsigned>(std::popcount(static_cast<unsigned>(less)));
}

#endif  // KATRIC_SIMD_X86

/// The merge kernel: two cursors, one op per comparison. With `blocks`
/// (AVX2 available), full 4×4 blocks go through the block merge first and
/// this loop finishes the tail; otherwise it runs alone.
template <typename Emit>
IntersectResult merge_kernel(Span a, Span b, bool blocks, Emit emit) {
    IntersectResult result;
    std::size_t i = 0;
    std::size_t j = 0;
#if KATRIC_SIMD_X86
    if (blocks) { block_merge_avx2(a, b, i, j, result, emit); }
#else
    (void)blocks;
#endif
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
    return result;
}

/// First index at or past `pos` whose element is ≥ x. With `window` (AVX2
/// available), one 4-lane compare at the cursor (1 charged op) settles most
/// probes and the scalar gallop only runs beyond it.
std::size_t seek(Span large, std::size_t pos, VertexId x, bool window,
                 std::uint64_t& ops) noexcept {
#if KATRIC_SIMD_X86
    if (window && pos + 4 <= large.size()) {
        ++ops;
        const unsigned less = window_less_count(large.data() + pos, x);
        if (less < 4) { return pos + less; }
        return gallop_lower_bound(large, pos + 4, x, ops);
    }
#else
    (void)window;
#endif
    return gallop_lower_bound(large, pos, x, ops);
}

/// The galloping kernel: walk the smaller operand (`a` on ties) and move
/// one monotone cursor through the larger one.
template <typename Emit>
IntersectResult gallop_kernel(Span a, Span b, bool window, Emit emit) {
    const bool a_small = a.size() <= b.size();
    const Span small = a_small ? a : b;
    const Span large = a_small ? b : a;
    IntersectResult result;
    std::size_t pos = 0;
    for (const VertexId x : small) {
        pos = seek(large, pos, x, window, result.ops);
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

bool simd_available() noexcept {
    return cpu_has_avx2() && !g_force_scalar.load(std::memory_order_relaxed);
}

void force_scalar_simd(bool force) noexcept {
    g_force_scalar.store(force, std::memory_order_relaxed);
}

IntersectResult intersect_merge(Span a, Span b) noexcept {
    return merge_kernel(a, b, false, Count{});
}

IntersectResult intersect_merge_collect(Span a, Span b, std::vector<VertexId>& out) {
    return merge_kernel(a, b, false, Collect{out});
}

IntersectResult intersect_simd_merge(Span a, Span b) noexcept {
    return merge_kernel(a, b, simd_available(), Count{});
}

IntersectResult intersect_simd_merge_collect(Span a, Span b, std::vector<VertexId>& out) {
    return merge_kernel(a, b, simd_available(), Collect{out});
}

IntersectResult intersect_galloping(Span a, Span b) noexcept {
    return gallop_kernel(a, b, false, Count{});
}

IntersectResult intersect_galloping_collect(Span a, Span b, std::vector<VertexId>& out) {
    return gallop_kernel(a, b, false, Collect{out});
}

IntersectResult intersect_simd_galloping(Span a, Span b) noexcept {
    return gallop_kernel(a, b, simd_available(), Count{});
}

IntersectResult intersect_simd_galloping_collect(Span a, Span b,
                                                 std::vector<VertexId>& out) {
    return gallop_kernel(a, b, simd_available(), Collect{out});
}

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
