// Fuzz suite for the untrusted-buffer decode surfaces (run under ASan/UBSan
// in the CI sanitizer leg). Two targets:
//   try_decode_sorted — the one varint decoder (decode_sorted is its
//   throwing wrapper) must return every clean buffer's values exactly, never
//   read out of bounds, and return false (not garbage, not a crash) on any
//   truncation.
//   verify_frame — a frame must verify kOk only when untouched: every
//   truncation length, every single-bit flip and every single-word
//   replacement is detected, and channel identity (src/dest/tag) is part of
//   the integrity check.

#include "net/encoding.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "util/random.hpp"

namespace katric::net {
namespace {

/// Deterministic sorted vertex-ID list with mixed gap sizes (small gaps
/// exercise multi-value words, huge gaps exercise long varints).
std::vector<std::uint64_t> fuzz_values(Xoshiro256& rng, std::size_t count) {
    std::vector<std::uint64_t> values;
    values.reserve(count);
    std::uint64_t next = rng.next_bounded(1000);
    for (std::size_t i = 0; i < count; ++i) {
        values.push_back(next);
        const auto roll = rng.next_bounded(10);
        if (roll < 6) {
            next += 1 + rng.next_bounded(100);           // small gaps
        } else if (roll < 9) {
            next += 1 + rng.next_bounded(1 << 20);       // medium gaps
        } else {
            next += 1 + (rng.next_bounded(1 << 30) << 8);  // long varints
        }
    }
    return values;
}

TEST(TryDecodeSorted, RoundTripsEveryCleanBuffer) {
    Xoshiro256 rng(101);
    for (const std::size_t count : {0u, 1u, 2u, 7u, 64u, 513u}) {
        const auto values = fuzz_values(rng, count);
        WordVec words;
        encode_sorted(values, words);

        std::vector<std::uint64_t> actual;
        ASSERT_TRUE(try_decode_sorted(words, count, actual)) << count;
        EXPECT_EQ(actual, values);
    }
}

TEST(TryDecodeSorted, EveryTruncationFailsCleanly) {
    Xoshiro256 rng(202);
    const auto values = fuzz_values(rng, 200);
    WordVec words;
    encode_sorted(values, words);
    ASSERT_GT(words.size(), 1u);

    for (std::size_t keep = 0; keep < words.size(); ++keep) {
        const std::span<const std::uint64_t> cut(words.data(), keep);
        std::vector<std::uint64_t> out{0xDEADu};  // must be cleared either way
        // A truncated stream must fail (the count no longer fits) and leave
        // `out` empty — never a partial decode presented as success.
        EXPECT_FALSE(try_decode_sorted(cut, values.size(), out)) << keep;
        EXPECT_TRUE(out.empty()) << keep;
    }
}

TEST(TryDecodeSorted, AbsurdCountsAreRejectedUpFront) {
    WordVec words{0x0101010101010101ULL};
    std::vector<std::uint64_t> out;
    EXPECT_FALSE(try_decode_sorted(words, 1u << 20, out));
    EXPECT_TRUE(out.empty());
    EXPECT_FALSE(try_decode_sorted({}, 1, out));
}

TEST(TryDecodeSorted, OverlongTenthByteIsRejectedNotSilentlyTruncated) {
    // Hand-pack a 10-byte varint: nine continuation bytes carry 63 payload
    // bits, so the 10th byte may contribute only bit 0. A 10th byte with
    // continuation clear but bits 1-6 set would silently shift payload out
    // of the uint64 — it must decode to false, not a wrong value.
    const auto pack = [](const std::vector<std::uint8_t>& bytes) {
        WordVec words((bytes.size() + 7) / 8, 0);
        for (std::size_t i = 0; i < bytes.size(); ++i) {
            words[i / 8] |= static_cast<std::uint64_t>(bytes[i]) << (8 * (i % 8));
        }
        return words;
    };

    std::vector<std::uint8_t> valid(9, 0xFF);
    valid.push_back(0x01);  // bit 63 set → UINT64_MAX, the widest legal varint
    std::vector<std::uint64_t> out;
    ASSERT_TRUE(try_decode_sorted(pack(valid), 1, out));
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], 0xFFFFFFFFFFFFFFFFULL);

    for (const std::uint8_t last : {0x02, 0x7e, 0x40, 0x03}) {
        std::vector<std::uint8_t> overlong(9, 0xFF);
        overlong.push_back(last);
        EXPECT_FALSE(try_decode_sorted(pack(overlong), 1, out))
            << "10th byte 0x" << std::hex << static_cast<int>(last);
        EXPECT_TRUE(out.empty());
    }
}

TEST(TryDecodeSorted, RandomBitFlipsNeverCrash) {
    Xoshiro256 rng(303);
    const auto values = fuzz_values(rng, 100);
    WordVec words;
    encode_sorted(values, words);

    // A flip may still decode (the checksum, not the varint layer, is the
    // integrity check); the property here is memory safety plus a clean
    // false on any stream that no longer parses.
    for (int trial = 0; trial < 2000; ++trial) {
        WordVec mutated = words;
        const auto word = rng.next_bounded(mutated.size());
        const auto bit = rng.next_bounded(64);
        mutated[word] ^= 1ULL << bit;
        std::vector<std::uint64_t> out;
        if (try_decode_sorted(mutated, values.size(), out)) {
            EXPECT_EQ(out.size(), values.size());
        } else {
            EXPECT_TRUE(out.empty());
        }
    }
}

TEST(TryDecodeSorted, RandomGarbageNeverCrashes) {
    Xoshiro256 rng(404);
    for (int trial = 0; trial < 2000; ++trial) {
        WordVec garbage(rng.next_bounded(32));
        for (auto& word : garbage) { word = rng(); }
        const auto count = rng.next_bounded(64);
        std::vector<std::uint64_t> out;
        if (try_decode_sorted(garbage, count, out)) {
            EXPECT_EQ(out.size(), count);
        } else {
            EXPECT_TRUE(out.empty());
        }
    }
}

/// A framed payload on a fixed channel, shared by the verify_frame cases.
struct FramedFixture {
    static constexpr std::uint32_t kSrc = 3;
    static constexpr std::uint32_t kDest = 5;
    static constexpr int kTag = 2;

    WordVec payload{7, 11, 13, 0, 0xFFFFFFFFFFFFFFFFULL};
    WordVec framed = frame_payload(42, kSrc, kDest, kTag, payload);
};

TEST(VerifyFrame, CleanFrameVerifiesWithAliasedPayload) {
    FramedFixture fx;
    ASSERT_EQ(fx.framed.size(), fx.payload.size() + kFrameHeaderWords);
    const auto view = verify_frame(fx.framed, fx.kSrc, fx.kDest, fx.kTag);
    EXPECT_EQ(view.status, FrameStatus::kOk);
    EXPECT_EQ(view.frame_id, 42u);
    ASSERT_EQ(view.payload.size(), fx.payload.size());
    EXPECT_TRUE(std::equal(view.payload.begin(), view.payload.end(),
                           fx.payload.begin()));
    // The payload view aliases the framed buffer — no copy.
    EXPECT_EQ(view.payload.data(), fx.framed.data() + kFrameHeaderWords);
}

TEST(VerifyFrame, EveryTruncationLengthIsDetected) {
    FramedFixture fx;
    for (std::size_t keep = 0; keep < fx.framed.size(); ++keep) {
        const std::span<const std::uint64_t> cut(fx.framed.data(), keep);
        const auto view = verify_frame(cut, fx.kSrc, fx.kDest, fx.kTag);
        EXPECT_NE(view.status, FrameStatus::kOk) << keep;
    }
}

TEST(VerifyFrame, EverySingleBitFlipIsDetected) {
    FramedFixture fx;
    for (std::size_t word = 0; word < fx.framed.size(); ++word) {
        for (int bit = 0; bit < 64; ++bit) {
            WordVec mutated = fx.framed;
            mutated[word] ^= 1ULL << bit;
            const auto view = verify_frame(mutated, fx.kSrc, fx.kDest, fx.kTag);
            // Header flips included: a corrupted length word may read as
            // truncation, anything else as a checksum mismatch — but never
            // as a clean frame.
            EXPECT_NE(view.status, FrameStatus::kOk) << word << ":" << bit;
        }
    }
}

TEST(VerifyFrame, EverySingleWordReplacementIsDetected) {
    // Each checksum step is a bijection in the word it absorbs, so no
    // replacement of one header or payload word, near its old value or
    // random, can verify — contiguous or with the header kept apart.
    constexpr std::uint32_t kSrc = 1;
    constexpr std::uint32_t kDest = 6;
    constexpr int kTag = 4;
    Xoshiro256 rng(909);
    for (const std::size_t length : {0, 1, 3, 4, 5, 7, 8, 9, 12, 17, 64, 67}) {
        WordVec payload(length);
        for (auto& word : payload) { word = rng.next_bounded(4) == 0 ? 0 : rng(); }
        const WordVec framed = frame_payload(rng(), kSrc, kDest, kTag, payload);
        for (std::size_t index = 0; index < framed.size(); ++index) {
            for (int trial = 0; trial < 24; ++trial) {
                const std::uint64_t delta = 1 + rng.next_bounded(4);
                std::uint64_t value = rng();
                if (trial % 3 == 1) { value = framed[index] + delta; }
                if (trial % 3 == 2) { value = framed[index] - delta; }
                if (value == framed[index]) { continue; }
                WordVec mutated = framed;
                mutated[index] = value;
                const auto contiguous = verify_frame(mutated, kSrc, kDest, kTag).status;
                EXPECT_TRUE(contiguous == FrameStatus::kCorrupt
                            || contiguous == FrameStatus::kTruncated)
                    << "length " << length << " word " << index << " := " << value;
                FrameHeader header;
                std::copy_n(mutated.begin(), kFrameHeaderWords, header.begin());
                const auto apart =
                    verify_frame(header, std::span(mutated).subspan(kFrameHeaderWords),
                                 kSrc, kDest, kTag)
                        .status;
                EXPECT_EQ(apart, contiguous) << "length " << length << " word " << index;
            }
        }
    }
}

TEST(VerifyFrame, ContiguousFrameIsTheHeaderBesideThePayload) {
    // The simulator retains a frame as its header beside the sender's
    // payload and builds the contiguous buffer only for a fault; both must
    // be the same frame word for word, so a truncation or bit-flip offset
    // lands on the same word either way.
    FramedFixture fx;
    const FrameHeader header = frame_header(42, fx.kSrc, fx.kDest, fx.kTag, fx.payload);
    ASSERT_EQ(fx.framed.size(), kFrameHeaderWords + fx.payload.size());
    EXPECT_TRUE(std::equal(header.begin(), header.end(), fx.framed.begin()));
    EXPECT_TRUE(std::equal(fx.payload.begin(), fx.payload.end(),
                           fx.framed.begin() + kFrameHeaderWords));
    EXPECT_EQ(header[2], frame_checksum(42, fx.kSrc, fx.kDest, fx.kTag, fx.payload));
    const auto view = verify_frame(header, fx.payload, fx.kSrc, fx.kDest, fx.kTag);
    EXPECT_EQ(view.status, FrameStatus::kOk);
    EXPECT_EQ(view.frame_id, 42u);
    // In place: the payload view aliases the sender's buffer.
    EXPECT_EQ(view.payload.data(), fx.payload.data());
    EXPECT_EQ(view.payload.size(), fx.payload.size());
    // A header that claims more words than the payload holds is a
    // truncation, never an out-of-bounds read.
    FrameHeader longer = header;
    ++longer[1];
    EXPECT_EQ(verify_frame(longer, fx.payload, fx.kSrc, fx.kDest, fx.kTag).status,
              FrameStatus::kTruncated);
}

TEST(VerifyFrame, ChannelIdentityIsPartOfTheChecksum) {
    FramedFixture fx;
    EXPECT_EQ(verify_frame(fx.framed, fx.kSrc, fx.kDest, fx.kTag).status,
              FrameStatus::kOk);
    // A frame replayed on the wrong channel (misrouted src, dest, or tag)
    // must not verify.
    EXPECT_EQ(verify_frame(fx.framed, fx.kSrc + 1, fx.kDest, fx.kTag).status,
              FrameStatus::kCorrupt);
    EXPECT_EQ(verify_frame(fx.framed, fx.kSrc, fx.kDest + 1, fx.kTag).status,
              FrameStatus::kCorrupt);
    EXPECT_EQ(verify_frame(fx.framed, fx.kSrc, fx.kDest, fx.kTag + 1).status,
              FrameStatus::kCorrupt);
}

TEST(VerifyFrame, DuplicatedFramesVerifyIdentically) {
    // Byte-identical duplicates (the injector's kDuplicate) both verify kOk;
    // telling them apart is the simulator's dedup set's job, by frame id.
    FramedFixture fx;
    const auto first = verify_frame(fx.framed, fx.kSrc, fx.kDest, fx.kTag);
    const auto second = verify_frame(fx.framed, fx.kSrc, fx.kDest, fx.kTag);
    EXPECT_EQ(first.status, FrameStatus::kOk);
    EXPECT_EQ(second.status, FrameStatus::kOk);
    EXPECT_EQ(first.frame_id, second.frame_id);
}

TEST(VerifyFrame, TrailingGarbageBeyondDeclaredLengthIsIgnored) {
    FramedFixture fx;
    WordVec padded = fx.framed;
    padded.push_back(0xBADBADBADULL);
    const auto view = verify_frame(padded, fx.kSrc, fx.kDest, fx.kTag);
    // The declared length bounds the payload; a longer physical buffer
    // (e.g. pool slack) is not an integrity failure.
    EXPECT_EQ(view.status, FrameStatus::kOk);
    EXPECT_EQ(view.payload.size(), fx.payload.size());
}

TEST(VerifyFrame, EmptyPayloadFramesRoundTrip) {
    const auto framed = frame_payload(7, 0, 1, 0, {});
    EXPECT_EQ(framed.size(), kFrameHeaderWords);
    const auto view = verify_frame(framed, 0, 1, 0);
    EXPECT_EQ(view.status, FrameStatus::kOk);
    EXPECT_EQ(view.frame_id, 7u);
    EXPECT_TRUE(view.payload.empty());
}

TEST(VerifyFrame, FuzzedRandomBuffersNeverCrash) {
    Xoshiro256 rng(505);
    for (int trial = 0; trial < 5000; ++trial) {
        WordVec garbage(rng.next_bounded(12));
        for (auto& word : garbage) { word = rng(); }
        const auto view = verify_frame(garbage,
                                       static_cast<std::uint32_t>(rng.next_bounded(8)),
                                       static_cast<std::uint32_t>(rng.next_bounded(8)),
                                       static_cast<int>(rng.next_bounded(4)));
        if (view.status == FrameStatus::kOk) {
            // Astronomically unlikely; if it ever verifies, the payload must
            // at least be in bounds.
            EXPECT_LE(view.payload.size() + kFrameHeaderWords, garbage.size());
        }
    }
}

}  // namespace
}  // namespace katric::net
