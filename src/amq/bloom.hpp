#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace katric::amq {

/// Where one key's probes land in a filter of m bits. Double hashing
/// (Kirsch–Mitzenmacher) puts probe i at (h1 + i·h2 mod 2^64) mod m; the
/// walk produces exactly those positions with two exact reductions per key,
/// h1 mod m and h2 mod m, and no division for any later probe: it steps by
/// h2 mod m and, when the 64-bit sum h1 + i·h2 wraps, takes 2^64 mod m back
/// off. Probe 0 needs h1 alone, so a key that misses there never pays for
/// h2.
class ProbeWalker {
public:
    /// One key's walk: the 64-bit sum h1 + i·h2 and its residue mod m, h2,
    /// and the residue steps without and with a wrap of the sum.
    struct Probe {
        std::uint64_t sum;
        std::uint64_t pos;
        std::uint64_t h2;
        std::uint64_t step;
        std::uint64_t wrapped_step;
    };

    /// A walker for m = num_bits ≥ 1 (0 is read as 1).
    explicit ProbeWalker(std::uint64_t num_bits) noexcept;

    /// Probe 0 of the key whose first base hash is h1. set_step() must run
    /// before next().
    [[nodiscard]] Probe first(std::uint64_t h1) const noexcept {
        return Probe{h1, h1 % m_, 0, 0, 0};
    }

    /// Gives `probe` the key's second base hash h2.
    void set_step(Probe& probe, std::uint64_t h2) const noexcept {
        probe.h2 = h2;
        probe.step = h2 % m_;
        probe.wrapped_step = add_mod(probe.step, unwrap_);
    }

    /// Moves `probe` from probe i to probe i + 1. Masks, not branches:
    /// whether the sum wraps is a coin flip per key.
    void next(Probe& probe) const noexcept {
        const std::uint64_t sum = probe.sum + probe.h2;
        const std::uint64_t wrapped = 0 - static_cast<std::uint64_t>(sum < probe.sum);
        const std::uint64_t step =
            probe.step ^ ((probe.step ^ probe.wrapped_step) & wrapped);
        probe.sum = sum;
        probe.pos = add_mod(probe.pos, step);
    }

    [[nodiscard]] std::uint64_t num_bits() const noexcept { return m_; }

private:
    /// a + b mod m for a, b < m, without a branch: a − (m − b), plus m
    /// when that went below zero.
    [[nodiscard]] std::uint64_t add_mod(std::uint64_t a, std::uint64_t b) const noexcept {
        const std::uint64_t gap = m_ - b;
        return a - gap + (m_ & (0 - static_cast<std::uint64_t>(a < gap)));
    }

    std::uint64_t m_;
    std::uint64_t unwrap_;  ///< −2^64 mod m: what a wrap of the sum adds back
};

/// Read-only Bloom filter over words it does not own: the receiver's view of
/// a filter shipped inside a message record, probed in place.
class BloomView {
public:
    /// Reads a shipped filter. Throws katric::assertion_error, before any
    /// probe, unless `words` holds exactly ⌈num_bits/64⌉ words (num_bits and
    /// num_hashes of 0 are read as 1, as BloomFilter does).
    BloomView(std::span<const std::uint64_t> words, std::uint64_t num_bits,
              std::uint32_t num_hashes, std::uint64_t seed, std::uint64_t inserted = 0);

    [[nodiscard]] bool contains(std::uint64_t key) const noexcept;

    /// How many of `keys` the filter contains: the sum of contains() over
    /// them. Probes in batches, probe 0 for every key, then probe 1 for the
    /// survivors, and so on, compacting the survivors without branches.
    [[nodiscard]] std::uint64_t count(std::span<const std::uint64_t> keys) const noexcept;

    [[nodiscard]] std::uint64_t num_bits() const noexcept { return walker_.num_bits(); }
    [[nodiscard]] std::uint32_t num_hashes() const noexcept { return num_hashes_; }
    [[nodiscard]] std::uint64_t inserted() const noexcept { return inserted_; }

    /// Analytic false-positive probability after n insertions:
    /// (1 − e^{−k·n/m})^k.
    [[nodiscard]] double expected_fpr(std::uint64_t items) const noexcept;
    [[nodiscard]] double expected_fpr() const noexcept { return expected_fpr(inserted_); }

private:
    friend class BloomFilter;
    BloomView(std::span<const std::uint64_t> words, const ProbeWalker& walker,
              std::uint32_t num_hashes, std::uint64_t seed,
              std::uint64_t inserted) noexcept
        : words_(words),
          walker_(walker),
          num_hashes_(num_hashes),
          seed_(seed),
          inserted_(inserted) {}

    [[nodiscard]] std::uint64_t h1(std::uint64_t key) const noexcept;
    [[nodiscard]] std::uint64_t h2(std::uint64_t key) const noexcept;
    [[nodiscard]] std::uint64_t bit(std::uint64_t pos) const noexcept {
        return (words_[pos >> 6] >> (pos & 63)) & 1;
    }

    std::span<const std::uint64_t> words_;
    ProbeWalker walker_;
    std::uint32_t num_hashes_;
    std::uint64_t seed_;
    std::uint64_t inserted_;
};

/// Bloom filter over 64-bit keys — the approximate-membership-query (AMQ)
/// structure of Section IV-E. In the approximate global phase, a PE sends
/// A'(v) = Bloom(A(v)) instead of the neighborhood list; the receiver
/// queries the members of A(u) against it and corrects for false positives
/// with the truthful estimator (see core::approx).
///
/// Double hashing (Kirsch–Mitzenmacher): position_i = h1 + i·h2 mod m,
/// which preserves the asymptotic false-positive rate with two base hashes.
/// insert, and contains and count on the view, share one ProbeWalker, so
/// every probe after the first costs a few adds. The receiver does not
/// rebuild the filter: it reads the shipped words through a BloomView,
/// which answers exactly as the filter that sent them.
class BloomFilter {
public:
    BloomFilter(std::uint64_t num_bits, std::uint32_t num_hashes, std::uint64_t seed = 0);

    /// Sizes the filter for a target false-positive rate at the expected
    /// load: m = −n·ln(f)/ln(2)², k = ln(2)·m/n (clamped to ≥ 1).
    [[nodiscard]] static BloomFilter with_fpr(std::uint64_t expected_items, double target_fpr,
                                              std::uint64_t seed = 0);

    void insert(std::uint64_t key);
    [[nodiscard]] bool contains(std::uint64_t key) const noexcept {
        return view().contains(key);
    }

    [[nodiscard]] std::uint64_t num_bits() const noexcept { return walker_.num_bits(); }
    [[nodiscard]] std::uint32_t num_hashes() const noexcept { return num_hashes_; }
    [[nodiscard]] std::uint64_t inserted() const noexcept { return inserted_; }

    [[nodiscard]] double expected_fpr(std::uint64_t items) const noexcept {
        return view().expected_fpr(items);
    }
    [[nodiscard]] double expected_fpr() const noexcept { return expected_fpr(inserted_); }

    /// Raw bit array for shipping over the network (payload words).
    [[nodiscard]] const std::vector<std::uint64_t>& words() const noexcept { return bits_; }

    /// This filter read through a view, as a receiver of its words sees it.
    [[nodiscard]] BloomView view() const noexcept {
        return BloomView(bits_, walker_, num_hashes_, seed_, inserted_);
    }

private:
    ProbeWalker walker_;
    std::uint32_t num_hashes_;
    std::uint64_t seed_;
    std::uint64_t inserted_ = 0;
    std::vector<std::uint64_t> bits_;
};

}  // namespace katric::amq
