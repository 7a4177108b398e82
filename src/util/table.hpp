#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

namespace katric {

/// Column-aligned text table used by every bench harness to print the
/// rows/series of the paper's tables and figures. Also emits CSV so results
/// can be plotted externally.
class Table {
public:
    explicit Table(std::vector<std::string> headers);

    /// Starts a new row; subsequent cell() calls fill it left to right.
    Table& row();
    Table& cell(const std::string& value);
    Table& cell(const char* value);
    Table& cell(double value, int precision = 3);
    Table& cell(std::uint64_t value);
    Table& cell(std::int64_t value);
    Table& cell(int value);

    [[nodiscard]] const std::vector<std::vector<std::string>>& rows() const noexcept {
        return rows_;
    }

    void print(std::ostream& out) const;
    [[nodiscard]] std::string to_csv() const;

private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

/// Human-readable quantity formatting: 1234567 -> "1.23 M".
[[nodiscard]] std::string format_si(double value, int precision = 2);

/// Formats a word count as bytes with binary suffix: words*8 -> "1.00 GiB".
[[nodiscard]] std::string format_words_as_bytes(std::uint64_t words);

}  // namespace katric
