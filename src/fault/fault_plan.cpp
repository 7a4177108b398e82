#include "fault_plan.hpp"

#include <cmath>
#include <cstdlib>
#include <sstream>

#include "util/assert.hpp"
#include "util/parse.hpp"

namespace katric::fault {

std::string fault_kind_name(FaultKind kind) {
    switch (kind) {
        case FaultKind::kDrop: return "drop";
        case FaultKind::kDuplicate: return "duplicate";
        case FaultKind::kReorder: return "reorder";
        case FaultKind::kDelay: return "delay";
        case FaultKind::kTruncate: return "truncate";
        case FaultKind::kBitFlip: return "bitflip";
        case FaultKind::kStall: return "stall";
        case FaultKind::kCrash: return "crash";
    }
    return "?";
}

std::string recovery_policy_name(RecoveryPolicy policy) {
    switch (policy) {
        case RecoveryPolicy::kFailFast: return "fail-fast";
        case RecoveryPolicy::kRetry: return "retry";
        case RecoveryPolicy::kDegrade: return "degrade";
    }
    return "?";
}

std::optional<RecoveryPolicy> parse_recovery_policy(const std::string& name) {
    if (name == "fail-fast") { return RecoveryPolicy::kFailFast; }
    if (name == "retry") { return RecoveryPolicy::kRetry; }
    if (name == "degrade") { return RecoveryPolicy::kDegrade; }
    return std::nullopt;
}

bool FaultPlan::empty() const noexcept {
    return drop == 0.0 && duplicate == 0.0 && reorder == 0.0 && delay == 0.0
           && truncate == 0.0 && bitflip == 0.0 && crashes.empty() && stalls.empty();
}

namespace {

void append_rank_faults(std::ostringstream& out, const char* key,
                        const std::vector<RankFault>& faults) {
    if (faults.empty()) { return; }
    out << ';' << key << '=';
    for (std::size_t i = 0; i < faults.size(); ++i) {
        if (i > 0) { out << ','; }
        out << faults[i].rank << '@' << faults[i].superstep;
    }
}

void append_probability(std::ostringstream& out, const char* key, double value) {
    if (value == 0.0) { return; }
    out << ';' << key << '=' << value;
}

/// Parses a nonnegative finite double covering the whole token; false on
/// garbage (including "inf" — no fault parameter means forever).
bool parse_double(const std::string& token, double& out) {
    if (token.empty()) { return false; }
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) { return false; }
    if (!(value >= 0.0) || !std::isfinite(value)) { return false; }  // also NaN
    out = value;
    return true;
}

/// Parses "R@S(,R@S)*" into rank faults; false on malformed entries.
bool parse_rank_faults(const std::string& token, std::vector<RankFault>& out) {
    std::istringstream entries(token);
    std::string entry;
    bool any = false;
    while (std::getline(entries, entry, ',')) {
        const auto at = entry.find('@');
        if (at == std::string::npos) { return false; }
        std::uint64_t rank = 0;
        std::uint64_t step = 0;
        if (!parse_u64(entry.substr(0, at), rank)
            || !parse_u64(entry.substr(at + 1), step)) {
            return false;
        }
        if (rank > 0xFFFFFFFFULL || step > 0xFFFFFFFFULL) { return false; }
        out.push_back({static_cast<std::uint32_t>(rank), static_cast<std::uint32_t>(step)});
        any = true;
    }
    return any;
}

bool parse_probability(const std::string& token, double& out) {
    double value = 0.0;
    if (!parse_double(token, value) || value > 1.0) { return false; }
    out = value;
    return true;
}

}  // namespace

std::string FaultPlan::to_spec() const {
    std::ostringstream out;
    out << "seed=" << seed;
    append_probability(out, "drop", drop);
    append_probability(out, "dup", duplicate);
    append_probability(out, "reorder", reorder);
    append_probability(out, "delay", delay);
    append_probability(out, "truncate", truncate);
    append_probability(out, "bitflip", bitflip);
    if (delay_seconds != FaultPlan{}.delay_seconds) {
        out << ";delay-secs=" << delay_seconds;
    }
    if (stall_seconds != FaultPlan{}.stall_seconds) {
        out << ";stall-secs=" << stall_seconds;
    }
    append_rank_faults(out, "crash", crashes);
    append_rank_faults(out, "stall", stalls);
    return out.str();
}

std::optional<FaultPlan> FaultPlan::try_parse(const std::string& spec, std::string* error) {
    FaultPlan plan;
    std::istringstream clauses(spec);
    std::string clause;
    while (std::getline(clauses, clause, ';')) {
        if (clause.empty()) { continue; }
        const auto eq = clause.find('=');
        if (eq == std::string::npos) {
            if (error != nullptr) {
                *error = "fault-spec clause '" + clause + "' is not key=value";
            }
            return std::nullopt;
        }
        const std::string key = clause.substr(0, eq);
        const std::string value = clause.substr(eq + 1);
        bool ok = false;
        if (key == "seed") {
            ok = parse_u64(value, plan.seed);
        } else if (key == "drop") {
            ok = parse_probability(value, plan.drop);
        } else if (key == "dup") {
            ok = parse_probability(value, plan.duplicate);
        } else if (key == "reorder") {
            ok = parse_probability(value, plan.reorder);
        } else if (key == "delay") {
            ok = parse_probability(value, plan.delay);
        } else if (key == "truncate") {
            ok = parse_probability(value, plan.truncate);
        } else if (key == "bitflip") {
            ok = parse_probability(value, plan.bitflip);
        } else if (key == "delay-secs") {
            ok = parse_double(value, plan.delay_seconds);
        } else if (key == "stall-secs") {
            ok = parse_double(value, plan.stall_seconds);
        } else if (key == "crash") {
            ok = parse_rank_faults(value, plan.crashes);
        } else if (key == "stall") {
            ok = parse_rank_faults(value, plan.stalls);
        } else {
            if (error != nullptr) {
                *error = "fault-spec clause '" + clause + "' has unknown key '" + key + "'";
            }
            return std::nullopt;
        }
        if (!ok) {
            if (error != nullptr) {
                *error = "fault-spec clause '" + clause + "' has a malformed value "
                         "(probabilities in [0,1], counts as decimal integers, "
                         "rank faults as R@S lists)";
            }
            return std::nullopt;
        }
    }
    return plan;
}

FaultPlan FaultPlan::parse(const std::string& spec) {
    std::string error;
    auto plan = try_parse(spec, &error);
    if (!plan.has_value()) { KATRIC_THROW(error); }
    return *plan;
}

}  // namespace katric::fault
