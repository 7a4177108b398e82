#pragma once

#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <string>

namespace katric {

/// Strict unsigned decimal parse of a whole token. strtoull alone silently
/// wraps a leading '-' to a huge positive value and stops at the first
/// non-digit, so this demands a digit up front ("-1" is malformed, not ~0),
/// consumes every character ("4x" and "1e3" are malformed, not 4 and 1) and
/// rejects values past 2^64-1. Leaves `out` untouched on failure.
[[nodiscard]] inline bool parse_u64(const std::string& token, std::uint64_t& out) {
    if (token.empty() || std::isdigit(static_cast<unsigned char>(token[0])) == 0) {
        return false;
    }
    errno = 0;
    char* end = nullptr;
    const unsigned long long value = std::strtoull(token.c_str(), &end, 10);
    if (end != token.c_str() + token.size() || errno == ERANGE) { return false; }
    out = value;
    return true;
}

}  // namespace katric
