#include "amq/bloom.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "util/assert.hpp"
#include "util/bits.hpp"
#include "util/hash.hpp"

namespace katric::amq {

ProbeWalker::ProbeWalker(std::uint64_t num_bits) noexcept
    : m_(std::max<std::uint64_t>(num_bits, 1)) {
    const std::uint64_t wrap = (0 - m_) % m_;  // 2^64 mod m
    unwrap_ = wrap == 0 ? 0 : m_ - wrap;
}

BloomView::BloomView(std::span<const std::uint64_t> words, std::uint64_t num_bits,
                     std::uint32_t num_hashes, std::uint64_t seed, std::uint64_t inserted)
    : BloomView(words, ProbeWalker(num_bits), std::max<std::uint32_t>(num_hashes, 1),
                seed, inserted) {
    const std::uint64_t expected = katric::div_ceil(walker_.num_bits(), 64);
    KATRIC_ASSERT_MSG(words.size() == expected,
                      "bloom deserialization size mismatch: " << words.size() << " vs "
                                                              << expected);
}

std::uint64_t BloomView::h1(std::uint64_t key) const noexcept {
    return katric::hash64_seeded(key, seed_);
}

std::uint64_t BloomView::h2(std::uint64_t key) const noexcept {
    return katric::hash64_seeded(key, seed_ + 0x517cc1b727220a95ULL) | 1;
}

bool BloomView::contains(std::uint64_t key) const noexcept {
    ProbeWalker::Probe probe = walker_.first(h1(key));
    if (bit(probe.pos) == 0) { return false; }
    walker_.set_step(probe, h2(key));
    for (std::uint32_t i = 1; i < num_hashes_; ++i) {
        walker_.next(probe);
        if (bit(probe.pos) == 0) { return false; }
    }
    return true;
}

std::uint64_t BloomView::count(std::span<const std::uint64_t> keys) const noexcept {
    // Batches small enough to keep the survivors' walks on the stack.
    constexpr std::size_t kBatch = 64;
    std::array<ProbeWalker::Probe, kBatch> live;
    std::array<std::uint64_t, kBatch> live_keys;
    std::uint64_t found = 0;
    for (std::size_t base = 0; base < keys.size(); base += kBatch) {
        const std::size_t batch = std::min(kBatch, keys.size() - base);
        // Probe 0 for every key. Every key is written forward, and only a
        // hit advances the slot, so the survivors end up packed in front.
        std::size_t alive = 0;
        for (std::size_t j = 0; j < batch; ++j) {
            const std::uint64_t key = keys[base + j];
            live[alive] = walker_.first(h1(key));
            live_keys[alive] = key;
            alive += bit(live[alive].pos);
        }
        if (num_hashes_ == 1 || alive == 0) {
            found += alive;
            continue;
        }
        for (std::size_t j = 0; j < alive; ++j) {
            walker_.set_step(live[j], h2(live_keys[j]));
            walker_.next(live[j]);
        }
        // Probes 1 to k − 2, compacting the same way; then the last one.
        for (std::uint32_t i = 1; i + 1 < num_hashes_ && alive > 0; ++i) {
            std::size_t kept = 0;
            for (std::size_t j = 0; j < alive; ++j) {
                ProbeWalker::Probe probe = live[j];
                const std::uint64_t hit = bit(probe.pos);
                walker_.next(probe);
                live[kept] = probe;
                kept += hit;
            }
            alive = kept;
        }
        for (std::size_t j = 0; j < alive; ++j) { found += bit(live[j].pos); }
    }
    return found;
}

double BloomView::expected_fpr(std::uint64_t items) const noexcept {
    const double exponent = -static_cast<double>(num_hashes_) * static_cast<double>(items)
                            / static_cast<double>(num_bits());
    return std::pow(1.0 - std::exp(exponent), static_cast<double>(num_hashes_));
}

BloomFilter::BloomFilter(std::uint64_t num_bits, std::uint32_t num_hashes, std::uint64_t seed)
    : walker_(num_bits),
      num_hashes_(std::max<std::uint32_t>(num_hashes, 1)),
      seed_(seed),
      bits_(katric::div_ceil(walker_.num_bits(), 64), 0) {}

BloomFilter BloomFilter::with_fpr(std::uint64_t expected_items, double target_fpr,
                                  std::uint64_t seed) {
    KATRIC_ASSERT(target_fpr > 0.0 && target_fpr < 1.0);
    const double n = static_cast<double>(std::max<std::uint64_t>(expected_items, 1));
    const double ln2 = std::log(2.0);
    const double bits = -n * std::log(target_fpr) / (ln2 * ln2);
    const auto m = static_cast<std::uint64_t>(std::ceil(bits));
    const auto k = static_cast<std::uint32_t>(
        std::max(1.0, std::round(ln2 * static_cast<double>(m) / n)));
    return BloomFilter(m, k, seed);
}

void BloomFilter::insert(std::uint64_t key) {
    const BloomView self = view();
    ProbeWalker::Probe probe = walker_.first(self.h1(key));
    walker_.set_step(probe, self.h2(key));
    for (std::uint32_t i = 0; i < num_hashes_; ++i) {
        if (i > 0) { walker_.next(probe); }
        bits_[probe.pos >> 6] |= std::uint64_t{1} << (probe.pos & 63);
    }
    ++inserted_;
}

}  // namespace katric::amq
