#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "util/assert.hpp"

namespace katric {

/// Why CliParser::parse rejected its tokens; an assertion_error, so callers
/// that only want the message catch it as before.
class CliError : public assertion_error {
public:
    enum class Kind : std::uint8_t {
        kUnknownOption,  ///< --name that no declared option answers to
        kMissingValue,   ///< an option that takes a value is the last token
        kNotAnOption,    ///< a token that does not start with "--"
    };

    CliError(Kind kind, std::string option, const std::string& what)
        : assertion_error(what), kind_(kind), option_(std::move(option)) {}

    [[nodiscard]] Kind kind() const noexcept { return kind_; }
    /// The option's name without "--"; for kNotAnOption, the whole token.
    [[nodiscard]] const std::string& option() const noexcept { return option_; }

private:
    Kind kind_;
    std::string option_;
};

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

    /// Parses argv. Returns false (after printing usage) iff --help or -h was
    /// given; throws CliError on a token it cannot place. A repeated option
    /// keeps the last value and is recorded in duplicates() so callers that
    /// want strictness (Config::try_from_flags) can reject it.
    bool parse(int argc, const char* const* argv);
    /// Parses bare option tokens (no program name): --help is an unknown
    /// option here like any other, and nothing is printed.
    void parse(const std::vector<std::string>& tokens);

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
    /// true|1|yes or false|0|no (a bare --flag reads true); anything else
    /// throws assertion_error naming the option.
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

    /// parse's tokenizer; returns false at a help token when `help` is set.
    bool read(const std::vector<std::string>& tokens, bool help);

    std::string program_;
    std::string description_;
    std::map<std::string, Option> options_;
    std::map<std::string, std::string> values_;
    std::vector<std::string> duplicates_;
};

}  // namespace katric
