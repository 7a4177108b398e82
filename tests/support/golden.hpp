#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace katric::test {

/// The golden files (tests/core/golden_reports.txt,
/// tests/bench/golden_figures.txt) pin deterministic simulated numbers, one
/// line per cell: integers must match exactly, doubles to 1e-12 relative.
/// Every run writes its recomputed file into the build tree; a reviewed `cp`
/// of that file over the golden is how an intended change lands.
inline constexpr double kGoldenRelativeTolerance = 1e-12;

/// One golden line rendered as `cell name=value …`. Finite doubles always
/// carry a '.', integers and hashes never do — that is what selects the
/// tolerant comparison.
class Line {
public:
    explicit Line(std::string cell) : text_(std::move(cell)) {}

    void add(const std::string& name, std::uint64_t value) {
        field(name, std::to_string(value));
    }
    void add(const std::string& name, double value) {
        char buffer[64];
        std::snprintf(buffer, sizeof(buffer), "%.17g", value);
        std::string rendered = buffer;
        if (std::isfinite(value) && rendered.find('.') == std::string::npos) {
            rendered.insert(std::min(rendered.find('e'), rendered.size()), ".0");
        }
        field(name, rendered);
    }
    void add_hash(const std::string& name, std::uint64_t hash) {
        char buffer[32];
        std::snprintf(buffer, sizeof(buffer), "%016llx",
                      static_cast<unsigned long long>(hash));
        field(name, buffer);
    }
    /// A label; whitespace would split the field, so it becomes '_'.
    void add(const std::string& name, std::string value) {
        std::replace(value.begin(), value.end(), ' ', '_');
        field(name, value);
    }

    [[nodiscard]] const std::string& text() const noexcept { return text_; }

private:
    void field(const std::string& name, const std::string& value) {
        text_ += ' ';
        text_ += name;
        text_ += '=';
        text_ += value;
    }

    std::string text_;
};

inline std::vector<std::string> split_fields(const std::string& text) {
    std::vector<std::string> tokens;
    std::istringstream in(text);
    for (std::string token; in >> token;) { tokens.push_back(token); }
    return tokens;
}

/// Exact, except two doubles (a '.' and nothing but the number) compare to
/// the relative tolerance.
inline bool golden_values_match(const std::string& golden, const std::string& actual) {
    if (golden == actual) { return true; }
    const auto as_double = [](const std::string& text, double& value) {
        char* end = nullptr;
        value = std::strtod(text.c_str(), &end);
        return text.find('.') != std::string::npos && end == text.c_str() + text.size();
    };
    double a = 0.0;
    double b = 0.0;
    if (!as_double(golden, a) || !as_double(actual, b)) { return false; }
    return std::fabs(a - b)
           <= kGoldenRelativeTolerance * std::max(std::fabs(a), std::fabs(b));
}

/// Empty when the line matches; otherwise names the first differing field.
inline std::string first_golden_difference(const std::string& golden,
                                           const std::string& actual) {
    const auto g = split_fields(golden);
    const auto a = split_fields(actual);
    if (g.empty() || a.empty() || g.front() != a.front()) {
        return "cell order differs: golden '" + (g.empty() ? "" : g.front())
               + "', recomputed '" + (a.empty() ? "" : a.front()) + "'";
    }
    for (std::size_t i = 1; i < std::max(g.size(), a.size()); ++i) {
        const std::string gf = i < g.size() ? g[i] : "<missing>";
        const std::string af = i < a.size() ? a[i] : "<missing>";
        const auto gname = gf.substr(0, gf.find('='));
        const auto aname = af.substr(0, af.find('='));
        if (gname != aname) {
            return g.front() + ": field '" + gname + "' vs recomputed field '" + aname
                   + "'";
        }
        const auto gvalue = gf.substr(gf.find('=') + 1);
        const auto avalue = af.substr(af.find('=') + 1);
        if (!golden_values_match(gvalue, avalue)) {
            return g.front() + ": field '" + gname + "' golden " + gvalue
                   + ", recomputed " + avalue;
        }
    }
    return "";
}

/// Empty when every line matches; otherwise the number of differing lines
/// and the first difference.
inline std::string golden_mismatch(const std::vector<std::string>& golden,
                                   const std::vector<std::string>& actual) {
    std::size_t differing = 0;
    std::string first;
    for (std::size_t i = 0; i < std::max(golden.size(), actual.size()); ++i) {
        const auto diff = first_golden_difference(i < golden.size() ? golden[i] : "",
                                                  i < actual.size() ? actual[i] : "");
        if (diff.empty()) { continue; }
        if (differing++ == 0) { first = "line " + std::to_string(i + 1) + ": " + diff; }
    }
    if (differing == 0) { return ""; }
    return std::to_string(differing) + " of " + std::to_string(golden.size())
           + " golden lines differ (" + std::to_string(actual.size())
           + " recomputed); first difference at " + first;
}

inline std::vector<std::string> read_golden(const std::string& path) {
    std::ifstream in(path);
    std::vector<std::string> golden;
    for (std::string line; std::getline(in, line);) { golden.push_back(line); }
    return golden;
}

/// Writes the recomputed `lines`, except that a line matching its golden
/// counterpart within tolerance is written as the golden's own text: a `cp`
/// of the file over the golden then changes only the lines that differ, not
/// the last digits of doubles the compiler's optimization level moved.
inline void write_golden(const std::string& path, const std::vector<std::string>& lines,
                         const std::vector<std::string>& golden) {
    std::ofstream out(path);
    for (std::size_t i = 0; i < lines.size(); ++i) {
        const bool matches =
            i < golden.size() && first_golden_difference(golden[i], lines[i]).empty();
        out << (matches ? golden[i] : lines[i]) << '\n';
    }
}

}  // namespace katric::test
