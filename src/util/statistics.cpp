#include "util/statistics.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <sstream>

#include "util/assert.hpp"

namespace katric {

void RunningStats::add(double x) noexcept {
    if (count_ == 0) {
        min_ = max_ = x;
    } else {
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }
    ++count_;
    sum_ += x;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
}

double RunningStats::variance() const noexcept {
    return count_ > 1 ? m2_ / static_cast<double>(count_ - 1) : 0.0;
}

void RunningStats::merge(const RunningStats& other) noexcept {
    if (other.count_ == 0) { return; }
    if (count_ == 0) {
        *this = other;
        return;
    }
    const auto n1 = static_cast<double>(count_);
    const auto n2 = static_cast<double>(other.count_);
    const double delta = other.mean_ - mean_;
    const double total = n1 + n2;
    mean_ += delta * n2 / total;
    m2_ += other.m2_ + delta * delta * n1 * n2 / total;
    count_ += other.count_;
    sum_ += other.sum_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
}

void Summary::ensure_sorted() const {
    if (!sorted_) {
        std::sort(samples_.begin(), samples_.end());
        sorted_ = true;
    }
}

double Summary::min() const {
    KATRIC_ASSERT(!samples_.empty());
    ensure_sorted();
    return samples_.front();
}

double Summary::max() const {
    KATRIC_ASSERT(!samples_.empty());
    ensure_sorted();
    return samples_.back();
}

double Summary::mean() const {
    KATRIC_ASSERT(!samples_.empty());
    double total = 0.0;
    for (double s : samples_) { total += s; }
    return total / static_cast<double>(samples_.size());
}

double Summary::median() const { return percentile(0.5); }

double Summary::percentile(double q) const {
    KATRIC_ASSERT(!samples_.empty());
    KATRIC_ASSERT(q >= 0.0 && q <= 1.0);
    ensure_sorted();
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(samples_.size())));
    const std::size_t index = rank == 0 ? 0 : rank - 1;
    return samples_[std::min(index, samples_.size() - 1)];
}

void Log2Histogram::add(std::uint64_t value) {
    const std::size_t bucket = value == 0 ? 0 : static_cast<std::size_t>(std::bit_width(value));
    if (bucket >= buckets_.size()) { buckets_.resize(bucket + 1, 0); }
    ++buckets_[bucket];
    ++total_;
}

void Log2Histogram::merge(const Log2Histogram& other) {
    if (other.buckets_.size() > buckets_.size()) { buckets_.resize(other.buckets_.size(), 0); }
    for (std::size_t i = 0; i < other.buckets_.size(); ++i) { buckets_[i] += other.buckets_[i]; }
    total_ += other.total_;
}

std::string Log2Histogram::to_string() const {
    std::ostringstream out;
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
        if (buckets_[i] == 0) { continue; }
        const std::uint64_t lo = i == 0 ? 0 : (1ULL << (i - 1));
        const std::uint64_t hi = i == 0 ? 0 : (1ULL << i) - 1;
        out << '[' << lo << ',' << hi << "]: " << buckets_[i] << '\n';
    }
    return out.str();
}

}  // namespace katric
