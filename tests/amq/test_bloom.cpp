#include "amq/bloom.hpp"

#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "util/assert.hpp"
#include "util/hash.hpp"
#include "util/random.hpp"

namespace katric::amq {
namespace {

TEST(BloomFilter, NoFalseNegativesProperty) {
    for (std::uint64_t trial = 0; trial < 20; ++trial) {
        Xoshiro256 rng(trial);
        BloomFilter filter = BloomFilter::with_fpr(200, 0.02, trial);
        std::vector<std::uint64_t> keys;
        for (int i = 0; i < 200; ++i) { keys.push_back(rng()); }
        for (const auto k : keys) { filter.insert(k); }
        for (const auto k : keys) { EXPECT_TRUE(filter.contains(k)); }
    }
}

TEST(BloomFilter, MeasuredFprNearAnalytic) {
    const std::uint64_t n = 2000;
    BloomFilter filter = BloomFilter::with_fpr(n, 0.02, 99);
    Xoshiro256 rng(7);
    for (std::uint64_t i = 0; i < n; ++i) { filter.insert(rng()); }
    // Disjoint query set (fresh random 64-bit keys collide with the inserted
    // set with negligible probability).
    std::uint64_t false_positives = 0;
    const std::uint64_t queries = 50000;
    for (std::uint64_t i = 0; i < queries; ++i) {
        if (filter.contains(rng())) { ++false_positives; }
    }
    const double measured = static_cast<double>(false_positives) / queries;
    const double analytic = filter.expected_fpr();
    EXPECT_LT(measured, 3.0 * analytic + 0.005);
    EXPECT_GT(measured, analytic / 4.0 - 0.005);
    EXPECT_NEAR(analytic, 0.02, 0.02);
}

TEST(BloomFilter, SizingFormula) {
    const auto filter = BloomFilter::with_fpr(1000, 0.01);
    // m ≈ 9.59 bits/key at 1% FPR, k ≈ 7.
    EXPECT_NEAR(static_cast<double>(filter.num_bits()), 9585.0, 10.0);
    EXPECT_NEAR(filter.num_hashes(), 7u, 1u);
}

TEST(BloomFilter, SerializationRoundTrip) {
    BloomFilter filter(512, 4, 12345);
    for (std::uint64_t k = 0; k < 50; ++k) { filter.insert(k * k + 1); }
    const BloomView copy(filter.words(), filter.num_bits(), filter.num_hashes(), 12345,
                         filter.inserted());
    EXPECT_EQ(copy.inserted(), filter.inserted());
    for (std::uint64_t k = 0; k < 50; ++k) {
        EXPECT_TRUE(copy.contains(k * k + 1));
    }
    // Same bit pattern ⇒ identical membership answers on arbitrary probes.
    Xoshiro256 rng(5);
    for (int i = 0; i < 1000; ++i) {
        const auto key = rng();
        EXPECT_EQ(copy.contains(key), filter.contains(key));
    }
}

TEST(BloomFilter, DeserializationSizeMismatchRejected) {
    BloomFilter filter(512, 4, 1);
    EXPECT_THROW(BloomView(filter.words(), /*num_bits=*/4096, 4, 1, 0),
                 katric::assertion_error);
    EXPECT_THROW(BloomView(std::span(filter.words()).first(7), 512, 4, 1, 0),
                 katric::assertion_error);
}

TEST(BloomFilter, HugeNumBitsWithEmptyWordsRejected) {
    // num_bits arrives over the wire: ⌈(2^64 − 1)/64⌉ = 2^58 words, not 0.
    // The view must refuse the record before it probes anything.
    EXPECT_THROW(BloomView({}, ~std::uint64_t{0}, 6, 3, 0), katric::assertion_error);
    EXPECT_THROW(BloomView({}, ~std::uint64_t{0} - 62, 6, 3, 0), katric::assertion_error);
    // Zero bits reads as one bit in one word, as the owning filter does.
    EXPECT_THROW(BloomView({}, 0, 6, 3, 0), katric::assertion_error);
    const std::uint64_t one_word[1] = {0};
    EXPECT_FALSE(BloomView(one_word, 0, 0, 3, 0).contains(42));
}

/// The per-probe formula the walker replaces: (h1 + i·h2 mod 2^64) mod m.
std::uint64_t formula_position(std::uint64_t h1, std::uint64_t h2, std::uint32_t i,
                               std::uint64_t m) {
    return (h1 + static_cast<std::uint64_t>(i) * h2) % m;
}

TEST(ProbeWalker, PositionsEqualThePerProbeFormula) {
    constexpr std::uint64_t kMax = ~std::uint64_t{0};
    const std::uint64_t sizes[] = {1,       2,      63,          64,          65,
                                   7919,    100003, 1ULL << 20,  (1ULL << 63) + 5,
                                   kMax - 2, kMax};
    Xoshiro256 rng(17);
    std::uint64_t wraps = 0;
    for (const std::uint64_t m : sizes) {
        const ProbeWalker walker(m);
        for (int trial = 0; trial < 400; ++trial) {
            // Random pairs wrap 2^64 about every other step; the fixed ones
            // sit at the edges.
            std::uint64_t h1 = rng();
            std::uint64_t h2 = rng() | 1;
            if (trial == 0) { h1 = kMax, h2 = kMax; }
            if (trial == 1) { h1 = kMax - 1, h2 = 1; }
            if (trial == 2) { h1 = 0, h2 = 1; }
            for (std::uint32_t k = 1; k <= 9; ++k) {
                ProbeWalker::Probe probe = walker.first(h1);
                walker.set_step(probe, h2);
                for (std::uint32_t i = 0; i < k; ++i) {
                    if (i > 0) {
                        const std::uint64_t before = h1 + (i - 1) * h2;
                        wraps += before + h2 < before ? 1 : 0;
                        walker.next(probe);
                    }
                    ASSERT_EQ(probe.pos, formula_position(h1, h2, i, m))
                        << "m=" << m << " h1=" << h1 << " h2=" << h2 << " i=" << i;
                }
            }
        }
    }
    EXPECT_GT(wraps, 1000u);
}

TEST(BloomFilter, CountEqualsSumOfContains) {
    for (std::uint64_t trial = 0; trial < 10; ++trial) {
        Xoshiro256 rng(100 + trial);
        BloomFilter filter = BloomFilter::with_fpr(300, 0.05 + 0.05 * trial, trial);
        std::vector<std::uint64_t> members;
        for (int i = 0; i < 300; ++i) { members.push_back(rng()); }
        for (const auto k : members) { filter.insert(k); }
        // Members, non-members, and a mix of both, in lengths that do and
        // do not fill the last batch.
        std::vector<std::uint64_t> keys;
        for (int i = 0; i < 200 + static_cast<int>(trial) * 37; ++i) {
            const bool member = i % 3 == 0;
            keys.push_back(member ? members[rng.next_bounded(members.size())] : rng());
        }
        for (const auto& set : {members, keys, std::vector<std::uint64_t>{}}) {
            std::uint64_t expected = 0;
            for (const auto k : set) { expected += filter.contains(k) ? 1 : 0; }
            EXPECT_EQ(filter.view().count(set), expected) << "trial " << trial;
        }
        EXPECT_EQ(filter.view().count(members), members.size());
    }
}

/// Double hashing spelled out per probe, with a division for every probe:
/// where insert and contains must put and find a key's bits.
std::vector<std::uint64_t> reference_positions(std::uint64_t key, std::uint64_t bits,
                                               std::uint32_t k, std::uint64_t seed) {
    const std::uint64_t h1 = katric::hash64_seeded(key, seed);
    const std::uint64_t h2 = katric::hash64_seeded(key, seed + 0x517cc1b727220a95ULL) | 1;
    std::vector<std::uint64_t> positions;
    for (std::uint32_t i = 0; i < k; ++i) {
        positions.push_back(formula_position(h1, h2, i, bits));
    }
    return positions;
}

TEST(BloomFilter, ViewAnswersAsTheOwningFilter) {
    for (const std::uint64_t bits : {1ULL, 63ULL, 64ULL, 65ULL, 1000ULL, 100003ULL}) {
        for (std::uint32_t k = 1; k <= 9; ++k) {
            const std::uint64_t seed = bits * 31 + k;
            BloomFilter filter(bits, k, seed);
            std::vector<std::uint64_t> reference(filter.words().size(), 0);
            Xoshiro256 rng(bits + k);
            for (std::uint64_t i = 0; i < bits / 16 + 3; ++i) {
                const auto key = rng();
                filter.insert(key);
                for (const auto pos : reference_positions(key, bits, k, seed)) {
                    reference[pos / 64] |= std::uint64_t{1} << (pos % 64);
                }
            }
            ASSERT_EQ(filter.words(), reference) << "bits=" << bits << " k=" << k;
            const std::vector<std::uint64_t> shipped = filter.words();
            const BloomView view(shipped, bits, k, seed, filter.inserted());
            EXPECT_EQ(view.num_bits(), filter.num_bits());
            EXPECT_EQ(view.num_hashes(), filter.num_hashes());
            EXPECT_EQ(view.expected_fpr(), filter.expected_fpr());
            std::vector<std::uint64_t> keys;
            for (int i = 0; i < 500; ++i) {
                const auto key = i % 2 == 0 ? rng() : static_cast<std::uint64_t>(i);
                keys.push_back(key);
                bool all_set = true;
                for (const auto pos : reference_positions(key, bits, k, seed)) {
                    all_set = all_set && ((shipped[pos / 64] >> (pos % 64)) & 1) != 0;
                }
                ASSERT_EQ(view.contains(key), all_set)
                    << "bits=" << bits << " k=" << k << " key=" << key;
                ASSERT_EQ(filter.contains(key), all_set);
            }
            EXPECT_EQ(view.count(keys), filter.view().count(keys));
        }
    }
}

TEST(BloomFilter, ExpectedFprMonotoneInLoad) {
    BloomFilter filter(1024, 4, 1);
    EXPECT_LT(filter.expected_fpr(10), filter.expected_fpr(100));
    EXPECT_LT(filter.expected_fpr(100), filter.expected_fpr(1000));
    EXPECT_EQ(filter.expected_fpr(0), 0.0);
}

TEST(BloomFilter, EmptyFilterContainsNothing) {
    const BloomFilter filter(256, 3, 7);
    Xoshiro256 rng(11);
    for (int i = 0; i < 1000; ++i) { EXPECT_FALSE(filter.contains(rng())); }
}

TEST(BloomFilter, SeedChangesHashPositions) {
    BloomFilter a(256, 3, 1);
    BloomFilter b(256, 3, 2);
    a.insert(42);
    b.insert(42);
    EXPECT_NE(a.words(), b.words());
}

}  // namespace
}  // namespace katric::amq
