#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/types.hpp"
#include "seq/intersection.hpp"

namespace katric::seq {

/// Vectorized intersection kernels (AVX2, 4×64-bit lanes) with runtime CPU
/// dispatch and scalar fallbacks. The build stays portable: compiling with
/// KATRIC_ENABLE_SIMD only *adds* the AVX2 code paths behind
/// function-level target attributes — no -march=native requirement — and
/// every entry point silently degrades to the scalar kernel when the
/// feature is compiled out, the CPU lacks AVX2, or a test forces the
/// scalar path. They are defined in intersection.cpp, beside the scalar
/// kernels whose loops they share.
///
/// Op-cost calibration: one 4×4 block comparison (4 cmpeq + mask extract +
/// advance) replaces up to 8 scalar merge comparisons but retires in a few
/// instructions, so a block is charged kSimdMergeBlockOps — calibrated
/// against bench_micro_kernels so simulated compute cost keeps tracking
/// real work (see docs/kernels.md). Scalar tail comparisons are charged 1
/// op each, exactly like intersect_merge.
inline constexpr std::uint64_t kSimdMergeBlockOps = 3;

/// True iff the AVX2 paths will actually run: compiled in, CPU supports
/// AVX2, not overridden by force_scalar_simd() or KATRIC_FORCE_SCALAR=1 in
/// the environment (the CI hook for exercising the portable path on SIMD
/// hardware).
[[nodiscard]] bool simd_available() noexcept;

/// Test hook: force (or un-force) the scalar fallbacks regardless of CPU
/// support. The differential tests run every kernel through both paths.
void force_scalar_simd(bool force) noexcept;

/// Shuffle-based block merge: compares 4-element blocks of both inputs
/// all-pairs via lane rotations, advancing the block with the smaller
/// maximum, and finishes the tail with the scalar merge. Exact same result
/// as intersect_merge; is intersect_merge when simd_available() is false.
[[nodiscard]] IntersectResult intersect_simd_merge(
    std::span<const graph::VertexId> a, std::span<const graph::VertexId> b) noexcept;

/// Collect variant (ascending output, appends to `out`), the SIMD sibling
/// of intersect_merge_collect.
IntersectResult intersect_simd_merge_collect(std::span<const graph::VertexId> a,
                                             std::span<const graph::VertexId> b,
                                             std::vector<graph::VertexId>& out);

/// Galloping probe with a vectorized front scan: each probe first compares
/// one 4-lane window at the shared cursor (1 charged op) and only gallops
/// scalar beyond it. Is intersect_galloping when simd_available() is false.
[[nodiscard]] IntersectResult intersect_simd_galloping(
    std::span<const graph::VertexId> a, std::span<const graph::VertexId> b) noexcept;

IntersectResult intersect_simd_galloping_collect(std::span<const graph::VertexId> a,
                                                 std::span<const graph::VertexId> b,
                                                 std::vector<graph::VertexId>& out);

}  // namespace katric::seq
