#include "net/encoding.hpp"

#include <bit>

#include "util/assert.hpp"
#include "util/hash.hpp"

namespace katric::net {

namespace {

/// LEB128-style varint: 7 payload bits per byte, high bit = continuation.
inline void push_varint(std::vector<std::uint8_t>& bytes, std::uint64_t value) {
    while (value >= 0x80) {
        bytes.push_back(static_cast<std::uint8_t>(value) | 0x80);
        value >>= 7;
    }
    bytes.push_back(static_cast<std::uint8_t>(value));
}

inline std::size_t varint_bytes(std::uint64_t value) {
    std::size_t n = 1;
    while (value >= 0x80) {
        value >>= 7;
        ++n;
    }
    return n;
}

std::vector<std::uint8_t> encode_bytes(std::span<const std::uint64_t> values) {
    std::vector<std::uint8_t> bytes;
    bytes.reserve(values.size() * 2);
    std::uint64_t previous = 0;
    bool first = true;
    for (const std::uint64_t v : values) {
        if (first) {
            push_varint(bytes, v);
            first = false;
        } else {
            KATRIC_ASSERT_MSG(v > previous, "encode_sorted requires strictly increasing input");
            push_varint(bytes, v - previous);
        }
        previous = v;
    }
    return bytes;
}

}  // namespace

std::size_t encode_sorted(std::span<const std::uint64_t> values, WordVec& out) {
    const auto bytes = encode_bytes(values);
    const std::size_t words = (bytes.size() + 7) / 8;
    const std::size_t base = out.size();
    out.resize(base + words, 0);
    for (std::size_t i = 0; i < bytes.size(); ++i) {
        out[base + i / 8] |= static_cast<std::uint64_t>(bytes[i]) << (8 * (i % 8));
    }
    return words;
}

std::size_t encoded_words(std::span<const std::uint64_t> values) {
    std::size_t bytes = 0;
    std::uint64_t previous = 0;
    bool first = true;
    for (const std::uint64_t v : values) {
        bytes += varint_bytes(first ? v : v - previous);
        previous = v;
        first = false;
    }
    return (bytes + 7) / 8;
}

void decode_sorted(std::span<const std::uint64_t> words, std::size_t count,
                   std::vector<std::uint64_t>& out) {
    KATRIC_ASSERT_MSG(try_decode_sorted(words, count, out),
                      "varint stream of " << words.size() << " word(s) does not hold "
                                          << count << " value(s): truncated or overlong");
}

bool try_decode_sorted(std::span<const std::uint64_t> words, std::size_t count,
                       std::vector<std::uint64_t>& out) {
    out.clear();
    // A varint needs at least one byte per value; cheap upfront reject keeps
    // a hostile `count` from reserving unbounded memory.
    const std::size_t byte_limit = words.size() * 8;
    if (count > byte_limit) { return false; }
    out.reserve(count);
    std::size_t byte_index = 0;
    std::uint64_t previous = 0;
    for (std::size_t i = 0; i < count; ++i) {
        std::uint64_t value = 0;
        int shift = 0;
        while (true) {
            if (byte_index >= byte_limit) {
                out.clear();
                return false;  // truncated stream
            }
            const std::uint8_t b = static_cast<std::uint8_t>(
                words[byte_index / 8] >> (8 * (byte_index % 8)));
            ++byte_index;
            if (shift == 63 && (b & 0x7e) != 0) {
                out.clear();
                // Overlong: the 10th byte contributes only bit 0; higher
                // payload bits would be silently shifted out of the uint64,
                // decoding a corrupted stream to a wrong value.
                return false;
            }
            value |= static_cast<std::uint64_t>(b & 0x7f) << shift;
            if ((b & 0x80) == 0) { break; }
            shift += 7;
            if (shift >= 64) {
                out.clear();
                return false;  // overlong varint
            }
        }
        previous = (i == 0) ? value : previous + value;
        out.push_back(previous);
    }
    return true;
}

namespace {

// xxh64's primes.
constexpr std::uint64_t kPrime1 = 0x9E3779B185EBCA87ULL;
constexpr std::uint64_t kPrime2 = 0xC2B2AE3D27D4EB4FULL;
constexpr std::uint64_t kPrime4 = 0x85EBCA77C2B2AE63ULL;

/// xxh64's round: a bijection in `word` for a fixed `acc`, and in `acc` for
/// a fixed `word`.
constexpr std::uint64_t lane_round(std::uint64_t acc, std::uint64_t word) noexcept {
    return std::rotl(acc + word * kPrime2, 31) * kPrime1;
}

/// Folds one value into the running hash: a bijection in `h` for a fixed
/// `value`, and in `value` for a fixed `h`.
constexpr std::uint64_t absorb(std::uint64_t h, std::uint64_t value) noexcept {
    return std::rotl(h ^ lane_round(0, value), 27) * kPrime1 + kPrime4;
}

}  // namespace

std::uint64_t frame_checksum(std::uint64_t frame_id, std::uint32_t src,
                             std::uint32_t dest, int tag,
                             std::span<const std::uint64_t> payload) {
    std::uint64_t h = hash64_seeded(frame_id, 0x6672616d65ULL /* "frame" */);
    const std::size_t stripes = payload.size() / 4;
    if (stripes > 0) {
        // The lanes start from constants, not from the frame id, so a
        // changed word moves exactly one lane and every fold below stays a
        // bijection in it.
        std::uint64_t lane[4] = {kPrime1 + kPrime2, kPrime2, 0, 0 - kPrime1};
        const std::uint64_t* word = payload.data();
        for (std::size_t s = 0; s < stripes; ++s, word += 4) {
            lane[0] = lane_round(lane[0], word[0]);
            lane[1] = lane_round(lane[1], word[1]);
            lane[2] = lane_round(lane[2], word[2]);
            lane[3] = lane_round(lane[3], word[3]);
        }
        for (const std::uint64_t acc : lane) { h = absorb(h, acc); }
    }
    for (const std::uint64_t word : payload.subspan(stripes * 4)) { h = absorb(h, word); }
    h = absorb(h, src);
    h = absorb(h, dest);
    h = absorb(h, static_cast<std::uint64_t>(static_cast<std::int64_t>(tag)));
    h = absorb(h, payload.size());
    return hash64(h);
}

FrameHeader frame_header(std::uint64_t frame_id, std::uint32_t src, std::uint32_t dest,
                         int tag, std::span<const std::uint64_t> payload) {
    return {frame_id, payload.size(), frame_checksum(frame_id, src, dest, tag, payload)};
}

WordVec frame_payload(std::uint64_t frame_id, std::uint32_t src, std::uint32_t dest,
                      int tag, std::span<const std::uint64_t> payload) {
    const FrameHeader header = frame_header(frame_id, src, dest, tag, payload);
    WordVec framed;
    framed.reserve(kFrameHeaderWords + payload.size());
    framed.insert(framed.end(), header.begin(), header.end());
    framed.insert(framed.end(), payload.begin(), payload.end());
    return framed;
}

FrameView verify_frame(std::span<const std::uint64_t> words, std::uint32_t src,
                       std::uint32_t dest, int tag) {
    if (words.size() < kFrameHeaderWords) { return FrameView{}; }  // kTruncated
    return verify_frame(words.first<kFrameHeaderWords>(),
                        words.subspan(kFrameHeaderWords), src, dest, tag);
}

FrameView verify_frame(std::span<const std::uint64_t, kFrameHeaderWords> header,
                       std::span<const std::uint64_t> payload, std::uint32_t src,
                       std::uint32_t dest, int tag) {
    FrameView view;
    const std::uint64_t frame_id = header[0];
    const std::uint64_t declared = header[1];
    view.frame_id = frame_id;
    if (payload.size() < declared) { return view; }  // kTruncated
    payload = payload.first(declared);
    if (frame_checksum(frame_id, src, dest, tag, payload) != header[2]) {
        view.status = FrameStatus::kCorrupt;
        return view;
    }
    view.status = FrameStatus::kOk;
    view.payload = payload;
    return view;
}

}  // namespace katric::net
