#include "util/cli.hpp"

#include <cstdlib>
#include <iostream>
#include <sstream>

#include "util/assert.hpp"
#include "util/parse.hpp"

namespace katric {

namespace {

/// Applies a std::sto* conversion to `value` and demands it consume every
/// character; garbage, overflow and trailing characters all fail with the
/// option named.
template <typename Convert>
auto whole_token(const std::string& name, const std::string& value, Convert convert) {
    std::size_t used = 0;
    decltype(convert(value, &used)) parsed{};
    try {
        parsed = convert(value, &used);
    } catch (const std::logic_error&) {
        used = 0;  // std::invalid_argument / std::out_of_range
    }
    KATRIC_ASSERT_MSG(!value.empty() && used == value.size(),
                      "--" << name << " expects a number, got '" << value << "'");
    return parsed;
}

}  // namespace

CliParser::CliParser(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description)) {}

CliParser& CliParser::option(const std::string& name, const std::string& default_value,
                             const std::string& help) {
    options_[name] = Option{default_value, help, /*is_flag=*/false};
    return *this;
}

CliParser& CliParser::flag(const std::string& name, const std::string& help) {
    options_[name] = Option{"false", help, /*is_flag=*/true};
    return *this;
}

bool CliParser::is_flag(const std::string& name) const {
    const auto it = options_.find(name);
    KATRIC_ASSERT_MSG(it != options_.end(), "undeclared option --" << name);
    return it->second.is_flag;
}

bool CliParser::parse(int argc, const char* const* argv) {
    values_.clear();
    duplicates_.clear();
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            std::cout << usage();
            return false;
        }
        KATRIC_ASSERT_MSG(arg.rfind("--", 0) == 0, "expected --option, got '" << arg << "'");
        arg = arg.substr(2);
        std::string value;
        const auto equals = arg.find('=');
        bool has_inline_value = equals != std::string::npos;
        if (has_inline_value) {
            value = arg.substr(equals + 1);
            arg = arg.substr(0, equals);
        }
        const auto it = options_.find(arg);
        KATRIC_ASSERT_MSG(it != options_.end(), "unknown option --" << arg);
        if (values_.contains(arg)) { duplicates_.push_back(arg); }
        if (it->second.is_flag) {
            values_[arg] = has_inline_value ? value : "true";
        } else if (has_inline_value) {
            values_[arg] = value;
        } else {
            KATRIC_ASSERT_MSG(i + 1 < argc, "missing value for --" << arg);
            values_[arg] = argv[++i];
        }
    }
    return true;
}

std::string CliParser::get_string(const std::string& name) const {
    const auto opt = options_.find(name);
    KATRIC_ASSERT_MSG(opt != options_.end(), "undeclared option --" << name);
    const auto val = values_.find(name);
    return val != values_.end() ? val->second : opt->second.default_value;
}

bool CliParser::was_set(const std::string& name) const {
    KATRIC_ASSERT_MSG(options_.contains(name), "undeclared option --" << name);
    return values_.contains(name);
}

std::int64_t CliParser::get_int(const std::string& name) const {
    return whole_token(name, get_string(name),
                       [](const std::string& value, std::size_t* used) {
                           return std::stoll(value, used);
                       });
}

std::uint64_t CliParser::get_uint(const std::string& name) const {
    const std::string value = get_string(name);
    std::uint64_t parsed = 0;
    KATRIC_ASSERT_MSG(parse_u64(value, parsed),
                      "--" << name << " expects an unsigned integer, got '" << value
                           << "'");
    return parsed;
}

double CliParser::get_double(const std::string& name) const {
    return whole_token(name, get_string(name),
                       [](const std::string& value, std::size_t* used) {
                           return std::stod(value, used);
                       });
}

bool CliParser::get_flag(const std::string& name) const {
    const std::string value = get_string(name);
    return value == "true" || value == "1" || value == "yes";
}

std::vector<std::uint64_t> CliParser::get_uint_list(const std::string& name) const {
    std::vector<std::uint64_t> result;
    std::stringstream stream(get_string(name));
    std::string token;
    while (std::getline(stream, token, ',')) {
        if (token.empty()) { continue; }
        std::uint64_t parsed = 0;
        KATRIC_ASSERT_MSG(parse_u64(token, parsed),
                          "--" << name << " expects unsigned integers, got '" << token
                               << "'");
        result.push_back(parsed);
    }
    return result;
}

std::string CliParser::usage() const {
    std::ostringstream out;
    out << program_ << " — " << description_ << "\n\nOptions:\n";
    for (const auto& [name, opt] : options_) {
        out << "  --" << name;
        if (!opt.is_flag) { out << " <value>"; }
        out << "\n      " << opt.help;
        if (!opt.is_flag) { out << " (default: " << opt.default_value << ")"; }
        out << '\n';
    }
    out << "  --help\n      Print this message.\n";
    return out.str();
}

}  // namespace katric
