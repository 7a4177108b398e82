#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace katric {

/// Minimal command-line parser for benches and examples. Supports
/// `--name value`, `--name=value`, and boolean `--flag`. Unknown arguments
/// are an error so typos in sweep parameters fail loudly instead of
/// silently benchmarking the defaults.
class CliParser {
public:
    CliParser(std::string program, std::string description);

    /// Declares an option with a default; returns *this for chaining.
    CliParser& option(const std::string& name, const std::string& default_value,
                      const std::string& help);
    CliParser& flag(const std::string& name, const std::string& help);

    /// Parses argv. Returns false (after printing usage) iff --help was given.
    /// Throws assertion_error on unknown options or missing values. A
    /// repeated option keeps the last value and is recorded in duplicates()
    /// so callers that want strictness (Config::try_from_flags) can reject it.
    bool parse(int argc, const char* const* argv);

    /// True iff option/flag `name` was declared on this parser.
    [[nodiscard]] bool declared(const std::string& name) const noexcept {
        return options_.contains(name);
    }
    /// Whether a declared name is a boolean flag (no value token).
    [[nodiscard]] bool is_flag(const std::string& name) const;
    /// Options that appeared more than once in the last parse, in first-
    /// repeat order.
    [[nodiscard]] const std::vector<std::string>& duplicates() const noexcept {
        return duplicates_;
    }

    [[nodiscard]] std::string get_string(const std::string& name) const;
    /// True iff the user explicitly passed the option (vs. its default).
    [[nodiscard]] bool was_set(const std::string& name) const;
    /// Numeric getters consume the whole value: "4x", "1e3" for an integer
    /// or a leading '-' for an unsigned one throw assertion_error naming the
    /// option instead of yielding 4, 1 or a wrapped 2^64-1.
    [[nodiscard]] std::int64_t get_int(const std::string& name) const;
    [[nodiscard]] std::uint64_t get_uint(const std::string& name) const;
    [[nodiscard]] double get_double(const std::string& name) const;
    [[nodiscard]] bool get_flag(const std::string& name) const;
    /// Comma-separated integer list, e.g. "--ps 1,2,4,8".
    [[nodiscard]] std::vector<std::uint64_t> get_uint_list(const std::string& name) const;

    [[nodiscard]] std::string usage() const;

private:
    struct Option {
        std::string default_value;
        std::string help;
        bool is_flag = false;
    };

    std::string program_;
    std::string description_;
    std::map<std::string, Option> options_;
    std::map<std::string, std::string> values_;
    std::vector<std::string> duplicates_;
};

}  // namespace katric
