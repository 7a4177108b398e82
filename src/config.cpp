#include "config.hpp"

#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>
#include <utility>

#include "util/assert.hpp"

namespace katric {

namespace {

/// Shortest-exact rendering of a double: %.17g round-trips every finite
/// IEEE-754 value through strtod, which is what the flag round-trip needs.
std::string format_double(double value) {
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
    return buffer;
}

std::string format_bool(bool value) { return value ? "1" : "0"; }

/// An unsigned flag narrowed to the field's type: a value the field cannot
/// hold is rejected, never wrapped or truncated.
template <typename T>
T get_narrow(const CliParser& cli, const std::string& name) {
    const std::uint64_t value = cli.get_uint(name);
    KATRIC_ASSERT_MSG(value <= static_cast<std::uint64_t>(std::numeric_limits<T>::max()),
                      "--" << name << "=" << value << " is out of range (max "
                           << std::numeric_limits<T>::max() << ")");
    return static_cast<T>(value);
}

/// The sentinel default for the numeric machine-model flags: "take the
/// value from the --network preset".
constexpr const char* kFromPreset = "preset";

/// Preset name whose NetworkConfig equals `network`, or empty.
std::string matching_network_preset(const net::NetworkConfig& network) {
    if (network == net::NetworkConfig::supermuc_like()) { return "supermuc"; }
    if (network == net::NetworkConfig::cloud_like()) { return "cloud"; }
    return "";
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
    const auto preset = matching_network_preset(defaults.network);
    cli.option("algorithm", core::algorithm_name(defaults.algorithm),
               "counting algorithm (DITRIC|DITRIC2|CETRIC|CETRIC2|TriC-style|"
               "HavoqGT-style|EdgeIterator-unbuffered)");
    cli.option("ranks", std::to_string(defaults.num_ranks), "simulated MPI ranks");
    cli.option("partition", partition_strategy_name(defaults.partition),
               "1-D partition strategy (balanced|uniform)");
    cli.option("network", preset.empty() ? "supermuc" : preset,
               "machine-model preset (supermuc|cloud)");
    cli.option("alpha", preset.empty() ? format_double(defaults.network.alpha)
                                       : kFromPreset,
               "message startup latency in seconds (default: from --network)");
    cli.option("beta", preset.empty() ? format_double(defaults.network.beta)
                                      : kFromPreset,
               "per-word transfer time in seconds (default: from --network)");
    cli.option("compute-op", preset.empty() ? format_double(defaults.network.compute_op)
                                            : kFromPreset,
               "per elementary-operation compute time in seconds "
               "(default: from --network)");
    cli.option("memory-limit",
               preset.empty() ? std::to_string(defaults.network.memory_limit_words)
                              : kFromPreset,
               "per-PE buffered-communication budget in words "
               "(default: from --network)");
    cli.option("intersect", seq::intersect_kind_name(defaults.options.intersect),
               "intersection kernel (merge|adaptive)");
    cli.option("hub-threshold", std::to_string(defaults.options.hub_threshold),
               "hub bitmap degree threshold for the adaptive kernel (0 = auto)");
    cli.option("buffer-threshold",
               std::to_string(defaults.options.buffer_threshold_words),
               "message-queue buffer threshold δ in words (0 = auto O(|E_i|))");
    cli.option("threads", std::to_string(defaults.options.threads),
               "threads per rank for the hybrid local phase");
    cli.option("pes-per-node", std::to_string(defaults.options.pes_per_node),
               "PEs per compute node (HavoqGT-style two-level router)");
    cli.option("compress", format_bool(defaults.options.compress_neighborhoods),
               "delta-varint compression of shipped neighborhoods (0|1)");
    cli.option("detect-termination",
               format_bool(defaults.options.detect_termination),
               "distributed termination detection in the global phase (0|1)");
    cli.option("indirect", format_bool(defaults.stream_indirect),
               "route stream traffic via the grid proxy (0|1)");
    cli.option("maintain-lcc", format_bool(defaults.maintain_lcc),
               "maintain per-vertex Δ/LCC alongside the streaming count (0|1)");
    cli.option("reuse-preprocessing", format_bool(defaults.reuse_preprocessing),
               "with --charge-reused-preprocessing=0: queries skip the replay of "
               "the engine's recorded preprocessing costs (0|1)");
    cli.option("charge-reused-preprocessing",
               format_bool(defaults.charge_reused_preprocessing),
               "keep replaying recorded preprocessing costs into every query "
               "for one-shot metric fidelity under --reuse-preprocessing (0|1)");
    cli.option("metrics", format_bool(defaults.metrics),
               "collect the observability metrics registry — query latency "
               "p50/p99, comm counters, kernel dispatch mix (0|1)");
    cli.option("trace-out", defaults.trace_out,
               "write Chrome trace-event JSON of every query's phase/superstep "
               "spans to this path (empty = tracing off)");
    cli.option("serve-threads", std::to_string(defaults.serve_threads),
               "Engine::serve worker threads over the engine's shared state "
               "(0 = serve-time default of 4)");
    cli.option("queue-depth", std::to_string(defaults.queue_depth),
               "Engine::serve admission-queue capacity; submissions beyond it "
               "are rejected with ServeError::kRejected (0 = default of 64)");
    cli.option("fault-spec", defaults.fault_spec,
               "fault-injection plan, e.g. seed=42;drop=0.01;bitflip=0.005;"
               "crash=2@3 (empty = none; non-empty implies --harden)");
    cli.option("harden", format_bool(defaults.harden),
               "hardened message layer: per-message checksums/sequencing, "
               "dedup, retransmission on detected loss or corruption (0|1)");
    cli.option("recovery", fault::recovery_policy_name(defaults.recovery),
               "policy on unrecoverable faults (fail-fast|retry|degrade)");
    cli.option("max-retries", std::to_string(defaults.max_retries),
               "retransmission budget per frame under retry/degrade recovery");
    cli.option("phase-timeout", format_double(defaults.phase_timeout),
               "simulated-seconds ceiling per superstep; exceeding it is a "
               "typed kTimeout error (0 = off)");
    cli.option("deadline", format_double(defaults.deadline_seconds),
               "default per-query deadline in wall-clock seconds, checked at "
               "superstep boundaries (0 = none)");
    cli.option("amq-fpr", format_double(defaults.amq.target_fpr),
               "Bloom-filter false-positive-rate target for approx_count");
    cli.option("amq-truthful", format_bool(defaults.amq.truthful),
               "apply the false-positive correction to AMQ estimates (0|1)");
    cli.option("amq-adaptive", format_bool(defaults.amq.adaptive),
               "ship exact lists when smaller than the Bloom filter (0|1)");
    cli.option("amq-seed", std::to_string(defaults.amq.seed), "AMQ hash seed");
}

Config Config::from_args(const CliParser& cli) {
    Config config;
    const auto algorithm = core::parse_algorithm(cli.get_string("algorithm"));
    KATRIC_ASSERT_MSG(algorithm.has_value(),
                      "unknown algorithm '" << cli.get_string("algorithm") << "'");
    config.algorithm = *algorithm;
    config.num_ranks = get_narrow<graph::Rank>(cli, "ranks");
    KATRIC_ASSERT_MSG(config.num_ranks >= 1, "--ranks must be at least 1");
    config.partition = parse_partition_strategy(cli.get_string("partition"));
    config.network = parse_network_preset(cli.get_string("network"));
    // Machine-parameter precedence: an explicitly passed numeric flag wins;
    // otherwise an explicitly passed --network preset wins; otherwise the
    // registered defaults apply (which are numeric literals when register_cli
    // was handed a hand-tuned network, and the "preset" sentinel otherwise).
    const bool network_explicit = cli.was_set("network");
    const auto numeric_applies = [&](const std::string& flag) {
        if (cli.was_set(flag)) { return true; }
        return !network_explicit && cli.get_string(flag) != kFromPreset;
    };
    if (numeric_applies("alpha")) { config.network.alpha = cli.get_double("alpha"); }
    if (numeric_applies("beta")) { config.network.beta = cli.get_double("beta"); }
    if (numeric_applies("compute-op")) {
        config.network.compute_op = cli.get_double("compute-op");
    }
    const auto& net = config.network;
    for (const auto& [flag, value] :
         {std::pair{"alpha", net.alpha}, std::pair{"beta", net.beta},
          std::pair{"compute-op", net.compute_op}}) {
        KATRIC_ASSERT_MSG(std::isfinite(value) && value >= 0.0,
                          "--" << flag << " must be finite and >= 0, got " << value);
    }
    if (numeric_applies("memory-limit")) {
        config.network.memory_limit_words = cli.get_uint("memory-limit");
    }
    config.options.intersect = seq::parse_intersect_kind(cli.get_string("intersect"));
    config.options.hub_threshold =
        static_cast<graph::Degree>(cli.get_uint("hub-threshold"));
    config.options.buffer_threshold_words = cli.get_uint("buffer-threshold");
    config.options.threads = get_narrow<int>(cli, "threads");
    config.options.pes_per_node = get_narrow<graph::Rank>(cli, "pes-per-node");
    config.options.compress_neighborhoods = cli.get_uint("compress") != 0;
    config.options.detect_termination = cli.get_uint("detect-termination") != 0;
    config.stream_indirect = cli.get_uint("indirect") != 0;
    config.maintain_lcc = cli.get_uint("maintain-lcc") != 0;
    config.reuse_preprocessing = cli.get_uint("reuse-preprocessing") != 0;
    config.charge_reused_preprocessing =
        cli.get_uint("charge-reused-preprocessing") != 0;
    config.metrics = cli.get_uint("metrics") != 0;
    config.trace_out = cli.get_string("trace-out");
    config.serve_threads = get_narrow<int>(cli, "serve-threads");
    config.queue_depth = static_cast<std::size_t>(cli.get_uint("queue-depth"));
    config.fault_spec = cli.get_string("fault-spec");
    if (!config.fault_spec.empty()) {
        // Validate the grammar here so a typo is a typed parse failure, not
        // a surprise mid-query; Engine re-parses the validated spec.
        (void)fault::FaultPlan::parse(config.fault_spec);
    }
    config.harden = cli.get_uint("harden") != 0;
    const auto recovery = fault::parse_recovery_policy(cli.get_string("recovery"));
    KATRIC_ASSERT_MSG(recovery.has_value(), "unknown recovery policy '"
                                                << cli.get_string("recovery")
                                                << "' (fail-fast|retry|degrade)");
    config.recovery = *recovery;
    config.max_retries = get_narrow<std::uint32_t>(cli, "max-retries");
    config.phase_timeout = cli.get_double("phase-timeout");
    KATRIC_ASSERT_MSG(config.phase_timeout >= 0.0, "--phase-timeout must be >= 0");
    config.deadline_seconds = cli.get_double("deadline");
    KATRIC_ASSERT_MSG(config.deadline_seconds >= 0.0, "--deadline must be >= 0");
    config.amq.target_fpr = cli.get_double("amq-fpr");
    KATRIC_ASSERT_MSG(config.amq.target_fpr > 0.0 && config.amq.target_fpr < 1.0,
                      "--amq-fpr must lie in (0, 1), got " << config.amq.target_fpr);
    config.amq.truthful = cli.get_uint("amq-truthful") != 0;
    config.amq.adaptive = cli.get_uint("amq-adaptive") != 0;
    config.amq.seed = cli.get_uint("amq-seed");
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

    // Token pre-scan: reject unknown flags and missing values with a typed
    // error before anything is applied (CliParser alone throws untyped).
    for (std::size_t i = 0; i < flags.size(); ++i) {
        const auto& token = flags[i];
        if (token.rfind("--", 0) != 0) {
            return fail(ConfigError::kBadValue,
                        "'" + token + "' is not a --flag token");
        }
        std::string name = token.substr(2);
        const auto equals = name.find('=');
        const bool has_inline_value = equals != std::string::npos;
        if (has_inline_value) { name = name.substr(0, equals); }
        if (!cli.declared(name)) { return fail(ConfigError::kUnknownFlag, name); }
        if (!has_inline_value && !cli.is_flag(name)) {
            if (i + 1 >= flags.size()) { return fail(ConfigError::kMissingValue, name); }
            ++i;  // the next token is this flag's value
        }
    }

    std::vector<const char*> argv;
    argv.reserve(flags.size() + 1);
    argv.push_back("config");
    for (const auto& flag : flags) { argv.push_back(flag.c_str()); }
    try {
        const bool proceed = cli.parse(static_cast<int>(argv.size()), argv.data());
        if (!proceed) { return fail(ConfigError::kUnknownFlag, "help"); }
        // A repeated flag last-wins inside CliParser; reject it typed here
        // instead of silently applying one of the two values.
        if (!cli.duplicates().empty()) {
            return fail(ConfigError::kDuplicateFlag, cli.duplicates().front());
        }
        parse.config = from_args(cli);
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
    flags.push_back("--algorithm=" + core::algorithm_name(algorithm));
    flags.push_back("--ranks=" + std::to_string(num_ranks));
    flags.push_back("--partition=" + partition_strategy_name(partition));
    const auto preset = matching_network_preset(network);
    if (!preset.empty()) {
        flags.push_back("--network=" + preset);
    } else {
        // A hand-tuned machine: every model parameter goes explicit so the
        // round-trip is exact regardless of how the config was reached.
        flags.push_back("--network=supermuc");
        flags.push_back("--alpha=" + format_double(network.alpha));
        flags.push_back("--beta=" + format_double(network.beta));
        flags.push_back("--compute-op=" + format_double(network.compute_op));
        flags.push_back("--memory-limit=" + std::to_string(network.memory_limit_words));
    }
    flags.push_back("--intersect=" + seq::intersect_kind_name(options.intersect));
    flags.push_back("--hub-threshold=" + std::to_string(options.hub_threshold));
    flags.push_back("--buffer-threshold="
                    + std::to_string(options.buffer_threshold_words));
    flags.push_back("--threads=" + std::to_string(options.threads));
    flags.push_back("--pes-per-node=" + std::to_string(options.pes_per_node));
    flags.push_back("--compress=" + format_bool(options.compress_neighborhoods));
    flags.push_back("--detect-termination=" + format_bool(options.detect_termination));
    flags.push_back("--indirect=" + format_bool(stream_indirect));
    flags.push_back("--maintain-lcc=" + format_bool(maintain_lcc));
    flags.push_back("--reuse-preprocessing=" + format_bool(reuse_preprocessing));
    flags.push_back("--charge-reused-preprocessing="
                    + format_bool(charge_reused_preprocessing));
    flags.push_back("--metrics=" + format_bool(metrics));
    flags.push_back("--trace-out=" + trace_out);
    flags.push_back("--serve-threads=" + std::to_string(serve_threads));
    flags.push_back("--queue-depth=" + std::to_string(queue_depth));
    flags.push_back("--fault-spec=" + fault_spec);
    flags.push_back("--harden=" + format_bool(harden));
    flags.push_back("--recovery=" + fault::recovery_policy_name(recovery));
    flags.push_back("--max-retries=" + std::to_string(max_retries));
    flags.push_back("--phase-timeout=" + format_double(phase_timeout));
    flags.push_back("--deadline=" + format_double(deadline_seconds));
    flags.push_back("--amq-fpr=" + format_double(amq.target_fpr));
    flags.push_back("--amq-truthful=" + format_bool(amq.truthful));
    flags.push_back("--amq-adaptive=" + format_bool(amq.adaptive));
    flags.push_back("--amq-seed=" + std::to_string(amq.seed));
    return flags;
}

std::string Config::to_command_line() const {
    std::ostringstream out;
    const auto flags = to_flags();
    for (std::size_t i = 0; i < flags.size(); ++i) {
        out << (i == 0 ? "" : " ") << flags[i];
    }
    return out.str();
}

Config Config::preset(const std::string& name) {
    Config config;
    if (name == "default") { return config; }
    if (name == "paper-ditric") {
        config.algorithm = core::Algorithm::kDitric;
        config.num_ranks = 16;
        return config;
    }
    if (name == "paper-cetric") {
        config.algorithm = core::Algorithm::kCetric;
        config.num_ranks = 16;
        return config;
    }
    if (name == "cloud-indirect") {
        // Latency-tolerant regime: grid indirection on a slow interconnect.
        config.algorithm = core::Algorithm::kDitric2;
        config.num_ranks = 16;
        config.network = net::NetworkConfig::cloud_like();
        config.stream_indirect = true;
        return config;
    }
    if (name == "adaptive-kernels") {
        config.algorithm = core::Algorithm::kCetric;
        config.num_ranks = 16;
        config.options.intersect = seq::IntersectKind::kAdaptive;
        return config;
    }
    if (name == "hybrid") {
        config.algorithm = core::Algorithm::kCetric;
        config.num_ranks = 8;
        config.options.threads = 6;
        return config;
    }
    if (name == "streaming-lcc") {
        config.algorithm = core::Algorithm::kCetric;
        config.maintain_lcc = true;
        config.options.intersect = seq::IntersectKind::kAdaptive;
        return config;
    }
    if (name == "approx-adaptive") {
        config.algorithm = core::Algorithm::kCetric;
        config.num_ranks = 16;
        config.amq.adaptive = true;
        return config;
    }
    if (name == "warm-monitor") {
        // Monitoring-style workload: many queries over one graph — build
        // the preprocessing state once, reuse it, skip the re-charge.
        config.algorithm = core::Algorithm::kCetric;
        config.num_ranks = 16;
        config.options.intersect = seq::IntersectKind::kAdaptive;
        config.reuse_preprocessing = true;
        return config;
    }
    if (name == "hardened-serve") {
        // Production-serving posture: warm state, checksummed/retransmitting
        // message layer, retry recovery, and the metrics to watch it all.
        config.algorithm = core::Algorithm::kCetric;
        config.num_ranks = 16;
        config.options.intersect = seq::IntersectKind::kAdaptive;
        config.reuse_preprocessing = true;
        config.harden = true;
        config.recovery = fault::RecoveryPolicy::kRetry;
        config.metrics = true;
        return config;
    }
    KATRIC_THROW("unknown Config preset '" << name << "'");
}

const std::vector<std::string>& Config::preset_names() {
    static const std::vector<std::string> names = {
        "default",          "paper-ditric", "paper-cetric",  "cloud-indirect",
        "adaptive-kernels", "hybrid",       "streaming-lcc", "approx-adaptive",
        "warm-monitor",     "hardened-serve",
    };
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
