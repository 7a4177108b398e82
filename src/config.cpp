#include "config.hpp"

#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>
#include <type_traits>
#include <utility>

#include "util/assert.hpp"

namespace katric {

namespace {

/// Preset name whose NetworkConfig equals `network`, or empty.
std::string matching_network_preset(const net::NetworkConfig& network) {
    if (network == net::NetworkConfig::supermuc_like()) { return "supermuc"; }
    if (network == net::NetworkConfig::cloud_like()) { return "cloud"; }
    return "";
}

// --- each field type as flag text and back --------------------------------

/// Shortest-exact rendering of a double: %.17g round-trips every finite
/// IEEE-754 value through strtod, which is what the flag round-trip needs.
std::string to_text(double value) {
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
    return buffer;
}
std::string to_text(bool value) { return value ? "1" : "0"; }
std::string to_text(const std::string& value) { return value; }
std::string to_text(core::Algorithm value) { return core::algorithm_name(value); }
std::string to_text(core::PartitionStrategy value) {
    return partition_strategy_name(value);
}
std::string to_text(seq::IntersectKind value) { return seq::intersect_kind_name(value); }
std::string to_text(fault::RecoveryPolicy value) {
    return fault::recovery_policy_name(value);
}
/// A hand-tuned machine renders as supermuc plus every model number.
std::string to_text(const net::NetworkConfig& value) {
    const auto preset = matching_network_preset(value);
    return preset.empty() ? "supermuc" : preset;
}
/// The integer fields; every other field type has its own overload above.
template <typename T>
std::string to_text(T value) {
    return std::to_string(value);
}

/// Parses a string, enum or network field from its flag text; the second
/// argument only picks the overload.
std::string from_text(const std::string& text, const std::string&) { return text; }
core::PartitionStrategy from_text(const std::string& text, core::PartitionStrategy) {
    return parse_partition_strategy(text);
}
net::NetworkConfig from_text(const std::string& text, const net::NetworkConfig&) {
    return parse_network_preset(text);
}
seq::IntersectKind from_text(const std::string& text, seq::IntersectKind) {
    return seq::parse_intersect_kind(text);
}
core::Algorithm from_text(const std::string& text, core::Algorithm) {
    const auto algorithm = core::parse_algorithm(text);
    if (!algorithm) { KATRIC_THROW("unknown algorithm '" << text << "'"); }
    return *algorithm;
}
fault::RecoveryPolicy from_text(const std::string& text, fault::RecoveryPolicy) {
    const auto recovery = fault::parse_recovery_policy(text);
    if (!recovery) {
        KATRIC_THROW("unknown recovery policy '" << text
                                                 << "' (fail-fast|retry|degrade)");
    }
    return *recovery;
}

/// Reads flag `name` into `field`. A bool is exactly 0 or 1; an unsigned
/// value the field cannot hold is rejected, never wrapped or truncated.
/// Rejections here and in the checks below throw the message alone.
template <typename T>
void read(const CliParser& cli, const std::string& name, T& field) {
    if constexpr (std::is_same_v<T, bool>) {
        const std::string text = cli.get_string(name);
        if (text != "0" && text != "1") {
            KATRIC_THROW("--" << name << " expects 0 or 1, got '" << text << "'");
        }
        field = text == "1";
    } else if constexpr (std::is_integral_v<T>) {
        const std::uint64_t value = cli.get_uint(name);
        constexpr auto max = std::numeric_limits<T>::max();
        if (value > static_cast<std::uint64_t>(max)) {
            KATRIC_THROW("--" << name << "=" << value << " is out of range (max " << max
                              << ")");
        }
        field = static_cast<T>(value);
    } else if constexpr (std::is_same_v<T, double>) {
        field = cli.get_double(name);
    } else {
        field = from_text(cli.get_string(name), field);
    }
}

// --- what a parsed value must satisfy -------------------------------------

constexpr auto at_least_one = [](const std::string& name, auto value) {
    if (value < 1) { KATRIC_THROW("--" << name << " must be at least 1"); }
};
constexpr auto non_negative = [](const std::string& name, double value) {
    if (!(value >= 0.0)) { KATRIC_THROW("--" << name << " must be >= 0"); }
};
constexpr auto finite_non_negative = [](const std::string& name, double value) {
    if (!(std::isfinite(value) && value >= 0.0)) {
        KATRIC_THROW("--" << name << " must be finite and >= 0, got " << value);
    }
};
constexpr auto open_unit_interval = [](const std::string& name, double value) {
    if (!(value > 0.0 && value < 1.0)) {
        KATRIC_THROW("--" << name << " must lie in (0, 1), got " << value);
    }
};
/// Validates the grammar here so a typo is a typed parse failure, not a
/// surprise mid-query; Engine re-parses the validated spec.
constexpr auto fault_spec_grammar = [](const std::string&, const std::string& spec) {
    if (!spec.empty()) { (void)fault::FaultPlan::parse(spec); }
};

// --- the tables -------------------------------------------------------------

/// A flag's name and help text; from_network marks a machine-model number
/// that the --network preset supplies unless the flag is given.
struct Row {
    std::string name;
    std::string help;
    bool from_network = false;
};

/// The flag table: one visit(row, field, checks...) per Config flag, in the
/// order to_flags writes them. register_cli, from_args and to_flags are
/// visitors; the field's type decides how it renders (to_text) and parses
/// (read), and each check(name, value) rejects a value the field disallows.
template <typename C, typename Visit>
void for_each_flag(C& c, const Visit& visit) {
    visit({"algorithm",
           "counting algorithm (DITRIC|DITRIC2|CETRIC|CETRIC2|TriC-style|"
           "HavoqGT-style|EdgeIterator-unbuffered)"},
          c.algorithm);
    visit({"ranks", "simulated MPI ranks"}, c.num_ranks, at_least_one);
    visit({"partition", "1-D partition strategy (balanced|uniform)"}, c.partition);
    visit({"network", "machine-model preset (supermuc|cloud)"}, c.network);
    visit({"alpha", "message startup latency in seconds (default: from --network)", true},
          c.network.alpha, finite_non_negative);
    visit({"beta", "per-word transfer time in seconds (default: from --network)", true},
          c.network.beta, finite_non_negative);
    visit({"compute-op",
           "per elementary-operation compute time in seconds (default: from --network)",
           true},
          c.network.compute_op, finite_non_negative);
    visit({"memory-limit",
           "per-PE buffered-communication budget in words (default: from --network)",
           true},
          c.network.memory_limit_words);
    visit({"intersect", "intersection kernel (merge|adaptive)"}, c.options.intersect);
    visit({"hub-threshold",
           "hub bitmap degree threshold for the adaptive kernel (0 = auto)"},
          c.options.hub_threshold);
    visit({"buffer-threshold",
           "message-queue buffer threshold δ in words (0 = auto O(|E_i|))"},
          c.options.buffer_threshold_words);
    visit({"threads", "threads per rank for the hybrid local phase"}, c.options.threads,
          at_least_one);
    visit({"pes-per-node", "PEs per compute node (HavoqGT-style two-level router)"},
          c.options.pes_per_node, at_least_one);
    visit({"compress", "delta-varint compression of shipped neighborhoods (0|1)"},
          c.options.compress_neighborhoods);
    visit({"detect-termination",
           "distributed termination detection in the global phase (0|1)"},
          c.options.detect_termination);
    visit({"indirect", "route stream traffic via the grid proxy (0|1)"},
          c.stream_indirect);
    visit({"maintain-lcc",
           "maintain per-vertex Δ/LCC alongside the streaming count (0|1)"},
          c.maintain_lcc);
    visit({"reuse-preprocessing",
           "with --charge-reused-preprocessing=0: queries skip the replay of "
           "the engine's recorded preprocessing costs (0|1)"},
          c.reuse_preprocessing);
    visit({"charge-reused-preprocessing",
           "keep replaying recorded preprocessing costs into every query "
           "for one-shot metric fidelity under --reuse-preprocessing (0|1)"},
          c.charge_reused_preprocessing);
    visit({"metrics",
           "collect the observability metrics registry — query latency "
           "p50/p99, comm counters, kernel dispatch mix (0|1)"},
          c.metrics);
    visit({"trace-out",
           "write Chrome trace-event JSON of every query's phase/superstep "
           "spans to this path (empty = tracing off)"},
          c.trace_out);
    visit({"serve-threads",
           "Engine::serve worker threads over the engine's shared state "
           "(0 = serve-time default of 4)"},
          c.serve_threads);
    visit({"queue-depth",
           "Engine::serve admission-queue capacity; submissions beyond it "
           "are rejected with ServeError::kRejected (0 = default of 64)"},
          c.queue_depth);
    visit({"fault-spec",
           "fault-injection plan, e.g. seed=42;drop=0.01;bitflip=0.005;"
           "crash=2@3 (empty = none; non-empty implies --harden)"},
          c.fault_spec, fault_spec_grammar);
    visit({"harden",
           "hardened message layer: per-message checksums/sequencing, "
           "dedup, retransmission on detected loss or corruption (0|1)"},
          c.harden);
    visit({"recovery", "policy on unrecoverable faults (fail-fast|retry|degrade)"},
          c.recovery);
    visit({"max-retries", "retransmission budget per frame under retry/degrade recovery"},
          c.max_retries);
    visit({"phase-timeout",
           "simulated-seconds ceiling per superstep; exceeding it is a "
           "typed kTimeout error (0 = off)"},
          c.phase_timeout, non_negative);
    visit({"deadline",
           "default per-query deadline in wall-clock seconds, checked at "
           "superstep boundaries (0 = none)"},
          c.deadline_seconds, non_negative);
    visit({"amq-fpr", "Bloom-filter false-positive-rate target for approx_count"},
          c.amq.target_fpr, open_unit_interval);
    visit({"amq-truthful", "apply the false-positive correction to AMQ estimates (0|1)"},
          c.amq.truthful);
    visit({"amq-adaptive", "ship exact lists when smaller than the Bloom filter (0|1)"},
          c.amq.adaptive);
    visit({"amq-seed", "AMQ hash seed"}, c.amq.seed);
}

// The machine-model precedence rule, in one place. For a config whose
// network is a named preset, the from_network flags come from the preset:
// to_flags leaves them out and register_cli defaults them to the sentinel
// kFromPreset. When parsing, such a flag applies if it was passed, or if
// --network was not passed and its registered default is a number (the
// registrar's network was hand-tuned).
constexpr const char* kFromPreset = "preset";

bool from_preset(const Row& row, const Config& config) {
    return row.from_network && !matching_network_preset(config.network).empty();
}

bool applies(const Row& row, const CliParser& cli) {
    if (!row.from_network || cli.was_set(row.name)) { return true; }
    return !cli.was_set("network") && cli.get_string(row.name) != kFromPreset;
}

struct Preset {
    std::string name;
    Config config;
};

const std::vector<Preset>& preset_table() {
    using core::Algorithm;
    using seq::IntersectKind;
    static const std::vector<Preset> table = {
        {"default", {}},
        {"paper-ditric", {.algorithm = Algorithm::kDitric, .num_ranks = 16}},
        {"paper-cetric", {.algorithm = Algorithm::kCetric, .num_ranks = 16}},
        // Latency-tolerant regime: grid indirection on a slow interconnect.
        {"cloud-indirect",
         {.algorithm = Algorithm::kDitric2, .num_ranks = 16,
          .network = net::NetworkConfig::cloud_like(), .stream_indirect = true}},
        {"adaptive-kernels",
         {.algorithm = Algorithm::kCetric, .num_ranks = 16,
          .options = {.intersect = IntersectKind::kAdaptive}}},
        {"hybrid",
         {.algorithm = Algorithm::kCetric, .num_ranks = 8, .options = {.threads = 6}}},
        {"streaming-lcc",
         {.algorithm = Algorithm::kCetric,
          .options = {.intersect = IntersectKind::kAdaptive}, .maintain_lcc = true}},
        {"approx-adaptive",
         {.algorithm = Algorithm::kCetric, .num_ranks = 16, .amq = {.adaptive = true}}},
        // Monitoring-style workload: many queries over one graph — build the
        // preprocessing state once, reuse it, skip the re-charge.
        {"warm-monitor",
         {.algorithm = Algorithm::kCetric, .num_ranks = 16,
          .options = {.intersect = IntersectKind::kAdaptive},
          .reuse_preprocessing = true}},
        // Production-serving posture: warm state, checksummed/retransmitting
        // message layer, retry recovery, and the metrics to watch it all.
        {"hardened-serve",
         {.algorithm = Algorithm::kCetric, .num_ranks = 16,
          .options = {.intersect = IntersectKind::kAdaptive}, .reuse_preprocessing = true,
          .metrics = true, .harden = true, .recovery = fault::RecoveryPolicy::kRetry}},
    };
    return table;
}

/// `token` as one POSIX shell word: as it is when it holds only characters
/// no shell treats specially, otherwise single-quoted.
std::string shell_word(const std::string& token) {
    constexpr const char* kPlain =
        "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_=+.,/:@%";
    if (!token.empty() && token.find_first_not_of(kPlain) == std::string::npos) {
        return token;
    }
    std::string quoted = "'";
    for (const char ch : token) { quoted += ch == '\'' ? R"('\'')" : std::string(1, ch); }
    return quoted + "'";
}

}  // namespace

std::string partition_strategy_name(core::PartitionStrategy strategy) {
    switch (strategy) {
        case core::PartitionStrategy::kUniformVertices: return "uniform";
        case core::PartitionStrategy::kBalancedEdges: return "balanced";
    }
    KATRIC_THROW("unknown partition strategy");
}

core::PartitionStrategy parse_partition_strategy(const std::string& name) {
    if (name == "uniform") { return core::PartitionStrategy::kUniformVertices; }
    if (name == "balanced") { return core::PartitionStrategy::kBalancedEdges; }
    KATRIC_THROW("unknown partition strategy '" << name << "' (uniform|balanced)");
}

net::NetworkConfig parse_network_preset(const std::string& name) {
    if (name == "supermuc") { return net::NetworkConfig::supermuc_like(); }
    if (name == "cloud") { return net::NetworkConfig::cloud_like(); }
    KATRIC_THROW("unknown network preset '" << name << "' (supermuc|cloud)");
}

core::RunSpec Config::run_spec() const {
    return core::RunSpec{algorithm, num_ranks, network, options, partition};
}

Config Config::from_run_spec(const core::RunSpec& spec) {
    Config config;
    config.algorithm = spec.algorithm;
    config.num_ranks = spec.num_ranks;
    config.partition = spec.partition;
    config.network = spec.network;
    config.options = spec.options;
    return config;
}

void Config::register_cli(CliParser& cli) { register_cli(cli, Config{}); }

void Config::register_cli(CliParser& cli, const Config& defaults) {
    for_each_flag(defaults, [&](const Row& row, const auto& field, const auto&...) {
        cli.option(row.name, from_preset(row, defaults) ? kFromPreset : to_text(field),
                   row.help);
    });
}

Config Config::from_args(const CliParser& cli) {
    Config config;
    for_each_flag(config, [&](const Row& row, auto& field, const auto&... checks) {
        if (!applies(row, cli)) { return; }
        read(cli, row.name, field);
        (checks(row.name, field), ...);
    });
    return config;
}

std::string config_error_message(ConfigError error, const std::string& detail) {
    switch (error) {
        case ConfigError::kNone: return "";
        case ConfigError::kUnknownFlag:
            return "unknown Config flag '" + detail + "'";
        case ConfigError::kDuplicateFlag:
            return "Config flag '" + detail + "' given more than once";
        case ConfigError::kMissingValue:
            return "Config flag '" + detail + "' is missing its value";
        case ConfigError::kBadValue:
            return "Config flag value rejected: " + detail;
    }
    return "unknown Config parse error";
}

ConfigParse Config::try_from_flags(const std::vector<std::string>& flags) {
    ConfigParse parse;
    const auto fail = [&](ConfigError error, std::string detail) {
        parse.error = error;
        parse.detail = std::move(detail);
        return parse;
    };

    CliParser cli("config", "katric::Config flag parser");
    register_cli(cli);
    try {
        cli.parse(flags);
        // A repeated flag last-wins inside CliParser; reject it typed here
        // instead of silently applying one of the two values.
        if (!cli.duplicates().empty()) {
            return fail(ConfigError::kDuplicateFlag, cli.duplicates().front());
        }
        parse.config = from_args(cli);
    } catch (const CliError& e) {
        using Kind = CliError::Kind;
        if (e.kind() == Kind::kNotAnOption) {
            return fail(ConfigError::kBadValue,
                        "'" + e.option() + "' is not a --flag token");
        }
        return fail(e.kind() == Kind::kMissingValue ? ConfigError::kMissingValue
                                                    : ConfigError::kUnknownFlag,
                    e.option());
    } catch (const std::exception& e) {
        // Enum parses, numeric conversions and range checks reject here
        // (assertion_error), all with the value in the text.
        return fail(ConfigError::kBadValue, e.what());
    }
    return parse;
}

Config Config::from_flags(const std::vector<std::string>& flags) {
    auto parse = try_from_flags(flags);
    KATRIC_ASSERT_MSG(parse.ok(), parse.message());
    return std::move(*parse.config);
}

std::vector<std::string> Config::to_flags() const {
    std::vector<std::string> flags;
    for_each_flag(*this, [&](const Row& row, const auto& field, const auto&...) {
        if (!from_preset(row, *this)) {
            flags.push_back("--" + row.name + "=" + to_text(field));
        }
    });
    return flags;
}

std::string Config::to_command_line() const {
    std::string line;
    for (const auto& flag : to_flags()) {
        line += (line.empty() ? "" : " ") + shell_word(flag);
    }
    return line;
}

Config Config::preset(const std::string& name) {
    for (const auto& preset : preset_table()) {
        if (preset.name == name) { return preset.config; }
    }
    KATRIC_THROW("unknown Config preset '" << name << "'");
}

const std::vector<std::string>& Config::preset_names() {
    static const std::vector<std::string> names = [] {
        std::vector<std::string> result;
        for (const auto& preset : preset_table()) { result.push_back(preset.name); }
        return result;
    }();
    return names;
}

std::string Config::describe() const {
    std::ostringstream out;
    out << core::algorithm_name(algorithm) << " on " << num_ranks << " PEs, "
        << partition_strategy_name(partition) << " partition, intersect="
        << seq::intersect_kind_name(options.intersect) << ", "
        << network.describe();
    return out.str();
}

}  // namespace katric
