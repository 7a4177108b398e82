#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

namespace katric::net {

using WordVec = std::vector<std::uint64_t>;

/// Delta–varint compression for sorted vertex-ID lists — the classic
/// volume-reduction technique for neighborhood exchange. Sorted IDs have
/// small gaps exactly when the graph has ID locality, so compression and
/// CETRIC's contraction profit from the same structure (and the compressed
/// global phase shows it: see the compression ablation bench).
///
/// Wire layout: the byte stream (first value varint-encoded, then the gaps)
/// packed little-endian into 64-bit words; the element count travels in the
/// record header, the word count is implicit in the record length.

/// Appends the encoding of `values` (strictly increasing) to `out`.
/// Returns the number of words appended.
std::size_t encode_sorted(std::span<const std::uint64_t> values, WordVec& out);

/// Decodes `count` values from `words` into `out` (cleared first); throws
/// assertion_error where try_decode_sorted returns false.
void decode_sorted(std::span<const std::uint64_t> words, std::size_t count,
                   std::vector<std::uint64_t>& out);

/// Exact number of words encode_sorted would append (for sizing decisions).
[[nodiscard]] std::size_t encoded_words(std::span<const std::uint64_t> values);

/// The one varint decoder, for untrusted buffers: returns false (leaving
/// `out` cleared) on a truncated or overlong varint stream, or a `count`
/// the words cannot hold, before reserving anything. Never reads past
/// `words`. The fuzz target; decode_sorted is its throwing wrapper.
[[nodiscard]] bool try_decode_sorted(std::span<const std::uint64_t> words,
                                     std::size_t count, std::vector<std::uint64_t>& out);

/// ---------------------------------------------------------------------------
/// Physical frame format of the hardened message layer (src/fault/). When a
/// run is hardened, every cross-rank payload send travels as
///
///   [frame_id, payload_words, checksum] + payload
///
/// The simulator keeps the 3-word header beside the sender's own payload
/// buffer and verifies the two in place; the contiguous layout
/// [frame_id, payload_words, checksum, payload...] (frame_payload) is built
/// only where a fault needs bytes of its own: a duplicate, a truncation or a
/// bit flip, whose offsets count from the header's first word.
///
/// The checksum is an integrity check, not a cryptographic MAC: four
/// xxh64-style lanes over the payload's 4-word stripes, folded into the
/// seeded frame id, then the tail words, src, dest, tag and payload length
/// absorbed one by one, and a final avalanche. Every step is a bijection in
/// the word it absorbs, so replacing any single word of the frame id,
/// payload or channel always changes the checksum. Truncation is caught by
/// the length word, corruption (including a flip inside the header itself)
/// by the checksum; duplicated frames are recognized by frame_id at the
/// receiver.

inline constexpr std::size_t kFrameHeaderWords = 3;
using FrameHeader = std::array<std::uint64_t, kFrameHeaderWords>;

/// Integrity checksum over the frame's identity and content.
[[nodiscard]] std::uint64_t frame_checksum(std::uint64_t frame_id, std::uint32_t src,
                                           std::uint32_t dest, int tag,
                                           std::span<const std::uint64_t> payload);

/// The header [frame_id, payload length, checksum] of `payload`'s frame.
[[nodiscard]] FrameHeader frame_header(std::uint64_t frame_id, std::uint32_t src,
                                       std::uint32_t dest, int tag,
                                       std::span<const std::uint64_t> payload);

/// Builds the contiguous framed buffer: header + copy of `payload`.
[[nodiscard]] WordVec frame_payload(std::uint64_t frame_id, std::uint32_t src,
                                    std::uint32_t dest, int tag,
                                    std::span<const std::uint64_t> payload);

enum class FrameStatus : std::uint8_t {
    kOk = 0,
    kTruncated,  ///< buffer shorter than header + declared payload length
    kCorrupt,    ///< checksum mismatch (bit flip in header or payload)
};

/// A verified view into a framed buffer. `payload` aliases the input words
/// and is only meaningful when status == kOk.
struct FrameView {
    FrameStatus status = FrameStatus::kTruncated;
    std::uint64_t frame_id = 0;
    std::span<const std::uint64_t> payload;
};

/// Verifies a received contiguous framed buffer against the channel
/// identity the receiver knows out of band. Never reads out of bounds on
/// any input.
[[nodiscard]] FrameView verify_frame(std::span<const std::uint64_t> words,
                                     std::uint32_t src, std::uint32_t dest, int tag);

/// Verifies a frame whose header and payload lie apart, in place: the
/// payload is the first header[1] words of `payload` (kTruncated when it
/// holds fewer).
[[nodiscard]] FrameView verify_frame(
    std::span<const std::uint64_t, kFrameHeaderWords> header,
    std::span<const std::uint64_t> payload, std::uint32_t src, std::uint32_t dest, int tag);

/// ZigZag mapping for the signed per-vertex delta records of the streaming
/// LCC flush: the sign moves into the LSB, so small-magnitude deltas of
/// either sign encode to small words (−1 → 1, 1 → 2, −2 → 3, …) and stay
/// friendly to any downstream varint packing.
[[nodiscard]] constexpr std::uint64_t encode_signed(std::int64_t value) noexcept {
    return (static_cast<std::uint64_t>(value) << 1)
           ^ static_cast<std::uint64_t>(value >> 63);
}

[[nodiscard]] constexpr std::int64_t decode_signed(std::uint64_t word) noexcept {
    return static_cast<std::int64_t>((word >> 1) ^ (0 - (word & 1)));
}

}  // namespace katric::net
