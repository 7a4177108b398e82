#pragma once

#include <bit>
#include <cstdint>

namespace katric {

/// ⌈log₂ x⌉ for x ≥ 1; 0 for x ∈ {0, 1}. Used for barrier/tree cost terms.
constexpr std::uint32_t ceil_log2(std::uint64_t x) noexcept {
    return x <= 1 ? 0u : static_cast<std::uint32_t>(std::bit_width(x - 1));
}

/// ⌊log₂ x⌋ for x ≥ 1.
constexpr std::uint32_t floor_log2(std::uint64_t x) noexcept {
    return x == 0 ? 0u : static_cast<std::uint32_t>(std::bit_width(x) - 1);
}

constexpr bool is_power_of_two(std::uint64_t x) noexcept {
    return x != 0 && (x & (x - 1)) == 0;
}

/// Smallest power of two ≥ x (x ≥ 1).
constexpr std::uint64_t next_power_of_two(std::uint64_t x) noexcept {
    return x <= 1 ? 1 : std::uint64_t{1} << ceil_log2(x);
}

/// Integer ceiling division, exact for every a (no a + b − 1 to wrap).
constexpr std::uint64_t div_ceil(std::uint64_t a, std::uint64_t b) noexcept {
    return a / b + static_cast<std::uint64_t>(a % b != 0);
}

/// Integer square root (floor).
constexpr std::uint64_t isqrt(std::uint64_t x) noexcept {
    if (x == 0) { return 0; }
    std::uint64_t lo = 1;
    std::uint64_t hi = std::uint64_t{1} << ((std::bit_width(x) + 1) / 2);
    while (lo < hi) {
        const std::uint64_t mid = lo + (hi - lo + 1) / 2;
        if (mid <= x / mid) {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    return lo;
}

}  // namespace katric
