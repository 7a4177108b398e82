#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace katric {

/// Welford's online mean/variance accumulator. O(1) memory, numerically
/// stable; used for per-PE metric aggregation where storing all samples
/// would defeat the linear-memory claims under test.
class RunningStats {
public:
    void add(double x) noexcept;

    [[nodiscard]] std::size_t count() const noexcept { return count_; }
    [[nodiscard]] double mean() const noexcept { return count_ > 0 ? mean_ : 0.0; }
    [[nodiscard]] double variance() const noexcept;
    [[nodiscard]] double min() const noexcept { return count_ > 0 ? min_ : 0.0; }
    [[nodiscard]] double max() const noexcept { return count_ > 0 ? max_ : 0.0; }
    [[nodiscard]] double sum() const noexcept { return sum_; }

    /// Merge another accumulator (Chan et al. parallel variance update).
    void merge(const RunningStats& other) noexcept;

private:
    std::size_t count_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/// Sample-storing summary: exact percentiles for bench reporting.
class Summary {
public:
    void add(double x) { samples_.push_back(x); }
    void reserve(std::size_t n) { samples_.reserve(n); }

    [[nodiscard]] std::size_t count() const noexcept { return samples_.size(); }
    [[nodiscard]] double min() const;
    [[nodiscard]] double max() const;
    [[nodiscard]] double mean() const;
    [[nodiscard]] double median() const;
    /// Percentile by nearest-rank on the sorted sample set; q in [0,1].
    [[nodiscard]] double percentile(double q) const;

private:
    void ensure_sorted() const;

    mutable std::vector<double> samples_;
    mutable bool sorted_ = false;
};

/// Power-of-two bucketed histogram for degree distributions.
class Log2Histogram {
public:
    void add(std::uint64_t value);
    /// Bucket-wise sum with another histogram (buckets grow as needed), so
    /// per-rank histograms can be reduced into a machine-wide one.
    void merge(const Log2Histogram& other);
    [[nodiscard]] const std::vector<std::uint64_t>& buckets() const noexcept { return buckets_; }
    [[nodiscard]] std::uint64_t total() const noexcept { return total_; }
    [[nodiscard]] std::string to_string() const;

private:
    std::vector<std::uint64_t> buckets_;
    std::uint64_t total_ = 0;
};

}  // namespace katric
