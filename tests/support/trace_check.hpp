#pragma once

#include <cctype>
#include <cstddef>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <variant>
#include <vector>

namespace katric::test {

/// Outcome of validating a Chrome trace-event JSON document against the
/// schema obs::Tracer emits. `ok` with empty `error` on success; otherwise
/// the first violation found.
struct TraceCheckResult {
    bool ok = false;
    std::string error;
    std::size_t num_events = 0;  ///< B/E events checked (metadata excluded)
    std::size_t num_spans = 0;   ///< matched B/E pairs

    explicit operator bool() const noexcept { return ok; }
};

namespace detail {

// --- strict RFC 8259 parser ------------------------------------------
// Purpose-built for validation: builds a full value tree (traces are small)
// and rejects everything outside the JSON grammar — trailing garbage,
// unescaped control characters, leading zeros, bare NaN/Infinity.

struct JsonValue;
using JsonArray = std::vector<JsonValue>;
using JsonObject = std::vector<std::pair<std::string, JsonValue>>;

struct JsonValue {
    std::variant<std::nullptr_t, bool, double, std::string, JsonArray, JsonObject> v;

    [[nodiscard]] const JsonValue* find(const std::string& key) const {
        const auto* obj = std::get_if<JsonObject>(&v);
        if (obj == nullptr) { return nullptr; }
        for (const auto& [k, value] : *obj) {
            if (k == key) { return &value; }
        }
        return nullptr;
    }
};

class JsonParser {
public:
    explicit JsonParser(const std::string& text) : text_(text) {}

    std::optional<JsonValue> parse(std::string& error) {
        JsonValue value;
        if (!parse_value(value)) {
            error = error_;
            return std::nullopt;
        }
        skip_ws();
        if (pos_ != text_.size()) {
            error = at("trailing characters after JSON document");
            return std::nullopt;
        }
        return value;
    }

private:
    std::string at(const std::string& message) {
        std::ostringstream out;
        out << message << " (offset " << pos_ << ")";
        return out.str();
    }

    bool fail(const std::string& message) {
        if (error_.empty()) { error_ = at(message); }
        return false;
    }

    void skip_ws() {
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (c != ' ' && c != '\t' && c != '\n' && c != '\r') { break; }
            ++pos_;
        }
    }

    bool consume(char expected) {
        if (pos_ >= text_.size() || text_[pos_] != expected) {
            return fail(std::string("expected '") + expected + "'");
        }
        ++pos_;
        return true;
    }

    bool digit_at(std::size_t i) const {
        return i < text_.size()
               && std::isdigit(static_cast<unsigned char>(text_[i])) != 0;
    }

    void skip_digits() {
        while (digit_at(pos_)) { ++pos_; }
    }

    bool parse_value(JsonValue& out) {
        skip_ws();
        if (pos_ >= text_.size()) { return fail("unexpected end of input"); }
        switch (text_[pos_]) {
            case '{': return parse_object(out);
            case '[': return parse_array(out);
            case '"': {
                std::string s;
                if (!parse_string(s)) { return false; }
                out.v = std::move(s);
                return true;
            }
            case 't': return parse_literal("true", out, JsonValue{true});
            case 'f': return parse_literal("false", out, JsonValue{false});
            case 'n': return parse_literal("null", out, JsonValue{nullptr});
            default: return parse_number(out);
        }
    }

    bool parse_literal(const std::string& word, JsonValue& out, JsonValue value) {
        if (text_.compare(pos_, word.size(), word) != 0) {
            return fail("invalid literal");
        }
        pos_ += word.size();
        out = std::move(value);
        return true;
    }

    bool parse_object(JsonValue& out) {
        if (!consume('{')) { return false; }
        JsonObject object;
        skip_ws();
        if (pos_ < text_.size() && text_[pos_] == '}') {
            ++pos_;
            out.v = std::move(object);
            return true;
        }
        while (true) {
            skip_ws();
            std::string key;
            if (!parse_string(key)) { return false; }
            skip_ws();
            if (!consume(':')) { return false; }
            JsonValue value;
            if (!parse_value(value)) { return false; }
            object.emplace_back(std::move(key), std::move(value));
            skip_ws();
            if (pos_ >= text_.size()) { return fail("unterminated object"); }
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (text_[pos_] == '}') {
                ++pos_;
                out.v = std::move(object);
                return true;
            }
            return fail("expected ',' or '}' in object");
        }
    }

    bool parse_array(JsonValue& out) {
        if (!consume('[')) { return false; }
        JsonArray array;
        skip_ws();
        if (pos_ < text_.size() && text_[pos_] == ']') {
            ++pos_;
            out.v = std::move(array);
            return true;
        }
        while (true) {
            JsonValue value;
            if (!parse_value(value)) { return false; }
            array.push_back(std::move(value));
            skip_ws();
            if (pos_ >= text_.size()) { return fail("unterminated array"); }
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (text_[pos_] == ']') {
                ++pos_;
                out.v = std::move(array);
                return true;
            }
            return fail("expected ',' or ']' in array");
        }
    }

    bool parse_string(std::string& out) {
        if (!consume('"')) { return false; }
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (c == '"') {
                ++pos_;
                return true;
            }
            if (static_cast<unsigned char>(c) < 0x20) {
                return fail("unescaped control character in string");
            }
            if (c == '\\') {
                ++pos_;
                if (pos_ >= text_.size()) { return fail("unterminated escape"); }
                const char esc = text_[pos_];
                switch (esc) {
                    case '"': out += '"'; break;
                    case '\\': out += '\\'; break;
                    case '/': out += '/'; break;
                    case 'b': out += '\b'; break;
                    case 'f': out += '\f'; break;
                    case 'n': out += '\n'; break;
                    case 'r': out += '\r'; break;
                    case 't': out += '\t'; break;
                    case 'u': {
                        if (pos_ + 4 >= text_.size()) {
                            return fail("truncated \\u escape");
                        }
                        for (int i = 1; i <= 4; ++i) {
                            if (std::isxdigit(static_cast<unsigned char>(
                                    text_[pos_ + i])) == 0) {
                                return fail("invalid \\u escape");
                            }
                        }
                        // Validation only: keep the escape verbatim instead
                        // of decoding UTF-16 surrogates.
                        out.append(text_, pos_ - 1, 6);
                        pos_ += 4;
                        break;
                    }
                    default: return fail("invalid escape character");
                }
                ++pos_;
                continue;
            }
            out += c;
            ++pos_;
        }
        return fail("unterminated string");
    }

    bool parse_number(JsonValue& out) {
        const std::size_t start = pos_;
        if (pos_ < text_.size() && text_[pos_] == '-') { ++pos_; }
        if (!digit_at(pos_)) { return fail("invalid number"); }
        if (text_[pos_] == '0') {
            ++pos_;
        } else {
            skip_digits();
        }
        if (pos_ < text_.size() && text_[pos_] == '.') {
            ++pos_;
            if (!digit_at(pos_)) { return fail("digits required after decimal point"); }
            skip_digits();
        }
        if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
            ++pos_;
            if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
                ++pos_;
            }
            if (!digit_at(pos_)) { return fail("digits required in exponent"); }
            skip_digits();
        }
        out.v = std::stod(text_.substr(start, pos_ - start));
        return true;
    }

    const std::string& text_;
    std::size_t pos_ = 0;
    std::string error_;
};

inline TraceCheckResult trace_failure(std::string error) {
    TraceCheckResult result;
    result.error = std::move(error);
    return result;
}

inline std::optional<double> get_number(const JsonValue& event, const std::string& key) {
    const JsonValue* value = event.find(key);
    if (value == nullptr) { return std::nullopt; }
    const auto* number = std::get_if<double>(&value->v);
    return number == nullptr ? std::nullopt : std::optional<double>(*number);
}

inline const std::string* get_string(const JsonValue& event, const std::string& key) {
    const JsonValue* value = event.find(key);
    return value == nullptr ? nullptr : std::get_if<std::string>(&value->v);
}

}  // namespace detail

/// Validates a trace document:
///   1. it parses as strict JSON (a purpose-built parser — no third-party
///      dependency — that accepts exactly the RFC 8259 grammar),
///   2. the top level is an object with a "traceEvents" array,
///   3. every event is an object with a one-character "ph"; B/E events
///      carry numeric "ts"/"pid"/"tid" and B events a "name",
///   4. timestamps are monotone non-decreasing in array order,
///   5. on each (pid, tid) lane, B/E events form a balanced stack — every
///      E closes the most recent open B, and nothing stays open at the end.
[[nodiscard]] inline TraceCheckResult check_trace_json(const std::string& json) {
    using detail::trace_failure;
    detail::JsonParser parser(json);
    std::string parse_error;
    const auto root = parser.parse(parse_error);
    if (!root.has_value()) { return trace_failure("invalid JSON: " + parse_error); }

    const detail::JsonValue* events_value = root->find("traceEvents");
    if (events_value == nullptr) {
        return trace_failure("top-level object lacks a \"traceEvents\" member");
    }
    const auto* events = std::get_if<detail::JsonArray>(&events_value->v);
    if (events == nullptr) { return trace_failure("\"traceEvents\" is not an array"); }

    TraceCheckResult result;
    // Per-lane stacks of open span names; the key is (pid, tid).
    std::map<std::pair<double, double>, std::vector<std::string>> open;
    double last_ts = 0.0;
    bool have_ts = false;

    for (std::size_t i = 0; i < events->size(); ++i) {
        const detail::JsonValue& event = (*events)[i];
        const std::string* ph = detail::get_string(event, "ph");
        const std::string where = "event " + std::to_string(i);
        if (ph == nullptr || ph->size() != 1) {
            return trace_failure(where + ": missing one-character \"ph\"");
        }
        const char kind = (*ph)[0];
        if (kind == 'M') { continue; }  // metadata carries no timing
        if (kind != 'B' && kind != 'E') {
            return trace_failure(where + ": unexpected phase type '" + *ph + "'");
        }
        const auto ts = detail::get_number(event, "ts");
        const auto pid = detail::get_number(event, "pid");
        const auto tid = detail::get_number(event, "tid");
        if (!ts || !pid || !tid) {
            return trace_failure(where + ": B/E event lacks numeric ts/pid/tid");
        }
        if (have_ts && *ts < last_ts) {
            return trace_failure(where + ": timestamps not monotone");
        }
        last_ts = *ts;
        have_ts = true;
        ++result.num_events;

        auto& stack = open[{*pid, *tid}];
        if (kind == 'B') {
            const std::string* name = detail::get_string(event, "name");
            if (name == nullptr) {
                return trace_failure(where + ": begin event lacks a \"name\"");
            }
            stack.push_back(*name);
        } else {
            if (stack.empty()) {
                return trace_failure(where + ": end event with no open span");
            }
            stack.pop_back();
            ++result.num_spans;
        }
    }

    for (const auto& [lane, stack] : open) {
        if (!stack.empty()) {
            std::ostringstream out;
            out << "unclosed span \"" << stack.back() << "\" on lane (pid "
                << lane.first << ", tid " << lane.second << ")";
            return trace_failure(out.str());
        }
    }

    result.ok = true;
    return result;
}

/// check_trace_json over a file's contents; fails when unreadable.
[[nodiscard]] inline TraceCheckResult check_trace_file(const std::string& path) {
    std::ifstream file(path);
    if (!file) { return detail::trace_failure("cannot open trace file: " + path); }
    std::ostringstream buffer;
    buffer << file.rdbuf();
    return check_trace_json(buffer.str());
}

}  // namespace katric::test
