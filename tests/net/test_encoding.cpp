#include "net/encoding.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <set>
#include <vector>

#include "util/random.hpp"

namespace katric::net {
namespace {

std::vector<std::uint64_t> random_sorted(Xoshiro256& rng, std::size_t size,
                                         std::uint64_t universe) {
    std::set<std::uint64_t> values;
    while (values.size() < size) { values.insert(rng.next_bounded(universe)); }
    return {values.begin(), values.end()};
}

TEST(Encoding, RoundTripHandCases) {
    for (const auto& values :
         {std::vector<std::uint64_t>{}, std::vector<std::uint64_t>{0},
          std::vector<std::uint64_t>{127}, std::vector<std::uint64_t>{128},
          std::vector<std::uint64_t>{0, 1, 2, 3},
          std::vector<std::uint64_t>{5, 1000, 1'000'000, 1ULL << 62}}) {
        WordVec words;
        encode_sorted(values, words);
        std::vector<std::uint64_t> back;
        decode_sorted(words, values.size(), back);
        EXPECT_EQ(back, values);
    }
}

TEST(SignedEncoding, RoundTripHandCases) {
    for (const std::int64_t value :
         {std::int64_t{0}, std::int64_t{1}, std::int64_t{-1}, std::int64_t{2},
          std::int64_t{-2}, std::int64_t{6}, std::int64_t{-6}, std::int64_t{1} << 40,
          -(std::int64_t{1} << 40), std::numeric_limits<std::int64_t>::max(),
          std::numeric_limits<std::int64_t>::min()}) {
        EXPECT_EQ(decode_signed(encode_signed(value)), value) << value;
    }
}

TEST(SignedEncoding, SmallMagnitudesEncodeSmall) {
    // The point of the zigzag mapping: |value| ≤ k occupies the 2k+1 lowest
    // codes, so per-vertex deltas of either sign stay varint-friendly.
    EXPECT_EQ(encode_signed(0), 0u);
    EXPECT_EQ(encode_signed(-1), 1u);
    EXPECT_EQ(encode_signed(1), 2u);
    EXPECT_EQ(encode_signed(-2), 3u);
    EXPECT_EQ(encode_signed(2), 4u);
    for (std::int64_t magnitude = 1; magnitude < 1000; magnitude += 37) {
        EXPECT_LT(encode_signed(magnitude),
                  static_cast<std::uint64_t>(2 * magnitude + 1));
        EXPECT_LT(encode_signed(-magnitude),
                  static_cast<std::uint64_t>(2 * magnitude + 1));
    }
}

TEST(SignedEncoding, RoundTripFuzz) {
    Xoshiro256 rng(13);
    for (int trial = 0; trial < 2000; ++trial) {
        const auto word = rng();
        const auto value = static_cast<std::int64_t>(word);
        EXPECT_EQ(decode_signed(encode_signed(value)), value);
        EXPECT_EQ(encode_signed(decode_signed(word)), word);
    }
}

TEST(Encoding, RoundTripFuzz) {
    Xoshiro256 rng(7);
    for (int trial = 0; trial < 200; ++trial) {
        const std::size_t size = rng.next_bounded(200);
        const std::uint64_t universe =
            1 + rng.next_bounded(trial % 2 == 0 ? 1000 : (1ULL << 48));
        const auto values = random_sorted(rng, std::min<std::size_t>(size, universe), universe);
        WordVec words;
        const auto appended = encode_sorted(values, words);
        EXPECT_EQ(appended, words.size());
        EXPECT_EQ(appended, encoded_words(values));
        std::vector<std::uint64_t> back;
        decode_sorted(words, values.size(), back);
        EXPECT_EQ(back, values);
    }
}

TEST(Encoding, AppendsAfterExistingContent) {
    WordVec words{42, 43};
    const std::vector<std::uint64_t> values{10, 20, 30};
    encode_sorted(values, words);
    EXPECT_EQ(words[0], 42u);
    EXPECT_EQ(words[1], 43u);
    std::vector<std::uint64_t> back;
    decode_sorted(std::span<const std::uint64_t>(words).subspan(2), 3, back);
    EXPECT_EQ(back, values);
}

TEST(Encoding, DenseIdsCompressWell) {
    // Consecutive IDs: 1 byte for each gap ⇒ ~8 IDs per word vs 1 per word raw.
    std::vector<std::uint64_t> dense(1024);
    for (std::size_t i = 0; i < dense.size(); ++i) { dense[i] = 1'000'000 + i; }
    EXPECT_LE(encoded_words(dense), dense.size() / 7);
}

TEST(Encoding, SparseHugeIdsStillBounded) {
    // Worst case ~10 bytes per 64-bit value ⇒ at most ~1.25 words per ID.
    std::vector<std::uint64_t> sparse;
    for (std::uint64_t i = 1; i <= 64; ++i) { sparse.push_back(i * (1ULL << 56)); }
    EXPECT_LE(encoded_words(sparse), sparse.size() * 5 / 4 + 2);
}

TEST(Encoding, UnsortedInputRejected) {
    WordVec words;
    const std::vector<std::uint64_t> bad{5, 5};
    EXPECT_THROW(encode_sorted(bad, words), katric::assertion_error);
}

TEST(Encoding, TruncatedStreamRejected) {
    WordVec words;
    encode_sorted(std::vector<std::uint64_t>{1, 2, 3}, words);
    std::vector<std::uint64_t> back;
    EXPECT_THROW(decode_sorted(words, 1000, back), katric::assertion_error);
}

TEST(Encoding, HugeCountRejectedBeforeReserving) {
    // A received record's count word is untrusted: 2^62 values cannot fit in
    // one word, and must not reach a reserve.
    const WordVec words{1};
    std::vector<std::uint64_t> back;
    EXPECT_THROW(decode_sorted(words, std::size_t{1} << 62, back),
                 katric::assertion_error);
    EXPECT_TRUE(back.empty());
}

}  // namespace
}  // namespace katric::net
