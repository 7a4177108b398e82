#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/approx.hpp"
#include "core/runner.hpp"
#include "fault/fault_plan.hpp"
#include "net/network_config.hpp"
#include "util/cli.hpp"

namespace katric {

struct ConfigParse;

/// Typed flag-parse failure (mirroring core::RunError): what
/// Config::try_from_flags reports instead of silently ignoring unknown or
/// duplicated flags.
enum class ConfigError : std::uint8_t {
    kNone = 0,
    kUnknownFlag,    ///< a flag no Config field answers to (typo protection)
    kDuplicateFlag,  ///< the same flag passed twice — ambiguous intent
    kMissingValue,   ///< a value-taking flag at the end of the list
    kBadValue,       ///< a value the field cannot parse
};

[[nodiscard]] std::string config_error_message(ConfigError error,
                                               const std::string& detail);

/// The library's one configuration surface: everything the scattered spec
/// structs (core::RunSpec, core::AlgorithmOptions, core::AmqOptions, the
/// streaming knobs, the partition strategy, and the network selection) used
/// to carry separately, merged into a single value that
///
///   * an Engine is built from (build state once, run many queries),
///   * round-trips through flags: parse(to_flags(c)) == c for every field
///     (Config::from_flags / Config::from_args / Config::to_flags),
///   * ships named presets (Config::preset) for the common regimes.
///
/// Field defaults match the historical RunSpec defaults, so
/// Config{} ≡ core::RunSpec{}.
struct Config {
    core::Algorithm algorithm = core::Algorithm::kDitric;
    graph::Rank num_ranks = 4;
    core::PartitionStrategy partition = core::PartitionStrategy::kBalancedEdges;
    net::NetworkConfig network = net::NetworkConfig::supermuc_like();
    core::AlgorithmOptions options = {};

    /// Streaming knobs: grid-proxy routing of stream traffic and per-vertex
    /// Δ/LCC maintenance alongside the global count (its initial pass is an
    /// LCC query, so `algorithm` must support a triangle sink).
    bool stream_indirect = false;
    bool maintain_lcc = false;

    /// Preprocessing charges (katric::Engine). Every engine builds ghost
    /// degrees, orientation, and hub bitmaps once at construction, and every
    /// query replays the recorded cost ledger into its simulated machine —
    /// reports bit-identical to a one-shot run — except when
    /// reuse_preprocessing is on and charge_reused_preprocessing is off:
    /// then queries skip the replay, and their op/time telemetry omits the
    /// preprocessing (Report::reused_preprocessing). Counts and result
    /// payloads are exact either way.
    bool reuse_preprocessing = false;
    bool charge_reused_preprocessing = false;

    /// Observability (src/obs/): collect the metrics registry — per-query
    /// latency summaries, comm counters/histograms, AdaptiveIntersect
    /// dispatch mix — on every Engine query. Off by default; the disabled
    /// path is a null pointer check.
    bool metrics = false;
    /// Observability: when non-empty, record hierarchical spans (query →
    /// phase → superstep, plus per-rank lanes) for every Engine query and
    /// write them to this path as Chrome trace-event JSON on session end
    /// (loadable in chrome://tracing or Perfetto). Engines sharing one path
    /// append to one timeline.
    std::string trace_out = {};

    /// Serving (Engine::serve): worker threads running submitted queries
    /// against the engine's shared state. 0 falls back to the ServeOptions /
    /// built-in default of 4 at session open.
    int serve_threads = 0;
    /// Serving: admission-queue capacity. Submissions beyond this many
    /// waiting requests are rejected with ServeError::kRejected instead of
    /// blocking the submitter. 0 falls back to the default of 64.
    std::size_t queue_depth = 0;

    /// Fault injection (src/fault/): a FaultPlan in the --fault-spec grammar
    /// ("seed=42;drop=0.01;crash=2@3"). Empty = no injection. A non-empty
    /// spec implies the hardened message layer (harden below).
    std::string fault_spec = {};
    /// Hardened message layer without injection: per-message checksums and
    /// sequence framing, verification + dedup at delivery, retransmission on
    /// detected loss/corruption. Implied by fault_spec; off by default — the
    /// disabled path is one null check per hot path, like obs.
    bool harden = false;
    /// What a query does when the hardened layer detects an unrecoverable
    /// fault: surface it immediately (fail-fast), after the retry budget
    /// (retry), or fall back to the approximate counter (degrade).
    fault::RecoveryPolicy recovery = fault::RecoveryPolicy::kRetry;
    /// Retransmission budget per frame under kRetry/kDegrade; kFailFast
    /// forces 0.
    std::uint32_t max_retries = 3;
    /// Simulated-seconds ceiling per superstep; a phase exceeding it throws
    /// a typed kTimeout instead of silently absorbing a wedged link. 0 = off.
    double phase_timeout = 0.0;
    /// Default per-query deadline in host wall-clock seconds, checked
    /// cooperatively at superstep boundaries; 0 = none. Per-request
    /// deadlines (ServeRequest / QueryOptions) override it.
    double deadline_seconds = 0.0;

    /// Approximate-counting knobs (Engine::approx_count).
    core::AmqOptions amq = {};

    friend bool operator==(const Config&, const Config&) = default;

    // --- spec interop (the core layer's spec struct) ----------------------
    [[nodiscard]] core::RunSpec run_spec() const;
    [[nodiscard]] static Config from_run_spec(const core::RunSpec& spec);

    // --- CLI round-trip --------------------------------------------------
    /// Declares every Config flag on a CliParser, defaulting to `defaults`.
    /// The flags, their help texts and checks are the rows of
    /// for_each_flag() in config.cpp (listed in docs/api.md).
    static void register_cli(CliParser& cli, const Config& defaults);
    static void register_cli(CliParser& cli);  ///< defaults = Config{}
    /// Reads a parsed CliParser (register_cli must have declared the flags).
    [[nodiscard]] static Config from_args(const CliParser& cli);
    /// Parses `--name=value` / `--name value` strings (register_cli +
    /// CliParser underneath). Unknown flags, duplicated flags, missing
    /// values, and unparsable values throw assertion_error with the typed
    /// ConfigError's message; use try_from_flags for the non-throwing form.
    [[nodiscard]] static Config from_flags(const std::vector<std::string>& flags);
    /// Non-throwing parse with a typed error (mirroring core::RunError):
    /// duplicate and unknown flags are rejected instead of silently
    /// last-winning / leaking through as untyped asserts.
    [[nodiscard]] static ConfigParse try_from_flags(
        const std::vector<std::string>& flags);
    /// Serializes to flags that from_flags parses back to an equal Config.
    [[nodiscard]] std::vector<std::string> to_flags() const;
    /// to_flags joined with spaces, each token holding a shell metacharacter
    /// single-quoted — the shell-pasteable form.
    [[nodiscard]] std::string to_command_line() const;

    // --- presets ---------------------------------------------------------
    /// Named presets, the rows of preset_table() in config.cpp (listed in
    /// docs/api.md). Unknown names throw.
    [[nodiscard]] static Config preset(const std::string& name);
    [[nodiscard]] static const std::vector<std::string>& preset_names();

    /// One-line human summary (bench headers).
    [[nodiscard]] std::string describe() const;
};

/// Result of Config::try_from_flags: either a parsed Config or a typed
/// error naming the offending flag — never a silently half-applied config.
struct ConfigParse {
    std::optional<Config> config;  ///< engaged iff ok()
    ConfigError error = ConfigError::kNone;
    std::string detail;  ///< the offending flag or value

    [[nodiscard]] bool ok() const noexcept { return error == ConfigError::kNone; }
    [[nodiscard]] std::string message() const {
        return config_error_message(error, detail);
    }
};

/// Names for the partition strategies ("balanced" / "uniform") and back.
[[nodiscard]] std::string partition_strategy_name(core::PartitionStrategy strategy);
[[nodiscard]] core::PartitionStrategy parse_partition_strategy(const std::string& name);

/// Network preset lookup ("supermuc" / "cloud"); unknown names throw.
[[nodiscard]] net::NetworkConfig parse_network_preset(const std::string& name);

}  // namespace katric
