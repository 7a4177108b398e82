#pragma once

namespace katric::seq {

/// Always false: no intersection kernel uses vector intrinsics, so every
/// host runs (and charges) the same portable code. Kept because the
/// repository benchmark records it in each result's provenance.
[[nodiscard]] bool simd_available() noexcept;

}  // namespace katric::seq
