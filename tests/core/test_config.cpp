// katric::Config: the one configuration surface. The load-bearing property
// is the CLI round-trip — parse(to_flags(c)) == c for every preset and for
// a config with every single field moved off its default — plus the spec
// interop the legacy shims depend on.

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "config.hpp"
#include "util/assert.hpp"

namespace katric {
namespace {

TEST(Config, DefaultsMatchLegacyRunSpecDefaults) {
    const Config config;
    const core::RunSpec legacy;
    EXPECT_EQ(config.algorithm, legacy.algorithm);
    EXPECT_EQ(config.num_ranks, legacy.num_ranks);
    EXPECT_EQ(config.partition, legacy.partition);
    EXPECT_EQ(config.network, legacy.network);
    EXPECT_TRUE(config.options == legacy.options);
}

/// A config with EVERY field off its default — if any flag is missing from
/// register_cli / to_flags / from_args, this round-trip breaks.
Config fully_customized() {
    Config config;
    config.algorithm = core::Algorithm::kHavoqgtStyle;
    config.num_ranks = 23;
    config.partition = core::PartitionStrategy::kUniformVertices;
    config.network.alpha = 3.14159e-5;
    config.network.beta = 2.718281828459045e-9;
    config.network.compute_op = 1.0000000000000002e-9;  // off-by-one-ulp case
    config.network.memory_limit_words = 123456789;
    config.options.buffer_threshold_words = 4097;
    config.options.intersect = seq::IntersectKind::kAdaptive;
    config.options.hub_threshold = 77;
    config.options.threads = 9;
    config.options.pes_per_node = 3;
    config.options.compress_neighborhoods = true;
    config.options.detect_termination = true;
    config.stream_indirect = true;
    config.maintain_lcc = true;
    config.reuse_preprocessing = true;
    config.charge_reused_preprocessing = true;
    config.metrics = true;
    config.trace_out = "/tmp/katric trace/q.json";
    config.serve_threads = 5;
    config.queue_depth = 17;
    config.fault_spec = "seed=42;drop=0.01";
    config.harden = true;
    config.recovery = fault::RecoveryPolicy::kDegrade;
    config.max_retries = 7;
    config.phase_timeout = 0.25;
    config.deadline_seconds = 1.5;
    config.amq.target_fpr = 0.0123456789012345;
    config.amq.truthful = false;
    config.amq.adaptive = true;
    config.amq.seed = 0xdeadbeefcafe;
    return config;
}

TEST(Config, RoundTripIdentityWithEveryFlagCustomized) {
    const Config config = fully_customized();
    EXPECT_NE(config, Config{}) << "fixture must differ from the defaults";
    const Config back = Config::from_flags(config.to_flags());
    EXPECT_EQ(back, config);
    // And a second hop stays fixed (serialize∘parse is idempotent).
    EXPECT_EQ(Config::from_flags(back.to_flags()), back);
}

TEST(Config, EveryIntersectKindRoundTrips) {
    for (const auto kind : seq::all_intersect_kinds()) {
        Config config;
        config.options.intersect = kind;
        EXPECT_EQ(Config::from_flags(config.to_flags()), config);
    }
}

TEST(Config, EveryAlgorithmRoundTrips) {
    for (const auto algorithm : core::all_algorithms()) {
        Config config;
        config.algorithm = algorithm;
        EXPECT_EQ(Config::from_flags(config.to_flags()), config);
    }
}

TEST(Config, NetworkPresetsSerializeByName) {
    Config cloud;
    cloud.network = net::NetworkConfig::cloud_like();
    const auto flags = cloud.to_flags();
    EXPECT_NE(std::find(flags.begin(), flags.end(), "--network=cloud"), flags.end());
    // No redundant numeric overrides when the preset matches exactly.
    for (const auto& flag : flags) { EXPECT_EQ(flag.find("--alpha"), std::string::npos); }
    EXPECT_EQ(Config::from_flags(flags), cloud);
}

TEST(Config, ExplicitMachineFlagsOverridePreset) {
    const Config config = Config::from_flags(
        {"--network=cloud", "--alpha=5e-5", "--memory-limit=1024"});
    EXPECT_EQ(config.network.alpha, 5e-5);
    EXPECT_EQ(config.network.beta, net::NetworkConfig::cloud_like().beta);
    EXPECT_EQ(config.network.memory_limit_words, 1024u);
}

TEST(Config, ExplicitNetworkPresetBeatsCustomRegistrarDefaults) {
    // register_cli with a hand-tuned network makes the numeric flag defaults
    // literal values; a user who then asks for `--network cloud` must get
    // cloud's machine model, not the registrar defaults leaking back in.
    Config defaults;
    defaults.network.alpha = 9e-3;
    defaults.network.memory_limit_words = 42;
    CliParser cli("test", "precedence");
    Config::register_cli(cli, defaults);
    const std::vector<const char*> argv = {"test", "--network", "cloud"};
    ASSERT_TRUE(cli.parse(static_cast<int>(argv.size()), argv.data()));
    const auto config = Config::from_args(cli);
    EXPECT_EQ(config.network, net::NetworkConfig::cloud_like());

    // With no flags at all, the registrar defaults reconstruct verbatim.
    CliParser empty_cli("test", "precedence");
    Config::register_cli(empty_cli, defaults);
    const std::vector<const char*> no_args = {"test"};
    ASSERT_TRUE(empty_cli.parse(static_cast<int>(no_args.size()), no_args.data()));
    EXPECT_EQ(Config::from_args(empty_cli).network, defaults.network);

    // And an explicit numeric flag beats the explicit preset.
    CliParser both_cli("test", "precedence");
    Config::register_cli(both_cli, defaults);
    const std::vector<const char*> both = {"test", "--network", "cloud", "--alpha",
                                           "7e-7"};
    ASSERT_TRUE(both_cli.parse(static_cast<int>(both.size()), both.data()));
    const auto mixed = Config::from_args(both_cli);
    EXPECT_EQ(mixed.network.alpha, 7e-7);
    EXPECT_EQ(mixed.network.beta, net::NetworkConfig::cloud_like().beta);
}

TEST(Config, SpaceSeparatedFlagFormWorks) {
    const Config config = Config::from_flags({"--algorithm", "CETRIC2", "--ranks", "7"});
    EXPECT_EQ(config.algorithm, core::Algorithm::kCetric2);
    EXPECT_EQ(config.num_ranks, 7);
}

TEST(Config, UnknownValuesThrow) {
    EXPECT_THROW((void)Config::from_flags({"--algorithm=NOPE"}), assertion_error);
    EXPECT_THROW((void)Config::from_flags({"--network=fancy"}), assertion_error);
    EXPECT_THROW((void)Config::from_flags({"--partition=2d"}), assertion_error);
    EXPECT_THROW((void)Config::from_flags({"--no-such-flag=1"}), assertion_error);
    EXPECT_THROW((void)Config::preset("no-such-preset"), assertion_error);
}

// --- typed parse errors (satellite): unknown and duplicate flags are
// rejected with a ConfigError instead of silently last-winning or leaking
// through as untyped asserts.

TEST(Config, TryFromFlagsParsesCleanInput) {
    const auto parse =
        Config::try_from_flags({"--algorithm=CETRIC2", "--ranks", "7"});
    ASSERT_TRUE(parse.ok());
    ASSERT_TRUE(parse.config.has_value());
    EXPECT_EQ(parse.error, ConfigError::kNone);
    EXPECT_TRUE(parse.message().empty());
    EXPECT_EQ(parse.config->algorithm, core::Algorithm::kCetric2);
    EXPECT_EQ(parse.config->num_ranks, 7);
}

TEST(Config, TryFromFlagsRejectsUnknownFlag) {
    const auto parse = Config::try_from_flags({"--ranks=4", "--no-such-flag=1"});
    EXPECT_FALSE(parse.ok());
    EXPECT_FALSE(parse.config.has_value());
    EXPECT_EQ(parse.error, ConfigError::kUnknownFlag);
    EXPECT_EQ(parse.detail, "no-such-flag");
    EXPECT_NE(parse.message().find("no-such-flag"), std::string::npos);
}

TEST(Config, TryFromFlagsRejectsDuplicateFlag) {
    for (const auto& flags :
         {std::vector<std::string>{"--ranks=4", "--ranks=8"},
          std::vector<std::string>{"--ranks", "4", "--ranks", "8"},
          std::vector<std::string>{"--ranks=4", "--ranks", "8"}}) {
        const auto parse = Config::try_from_flags(flags);
        EXPECT_FALSE(parse.ok());
        EXPECT_EQ(parse.error, ConfigError::kDuplicateFlag);
        EXPECT_EQ(parse.detail, "ranks");
    }
    // from_flags throws the same typed message instead of last-winning.
    EXPECT_THROW((void)Config::from_flags({"--ranks=4", "--ranks=8"}),
                 assertion_error);
}

TEST(Config, TryFromFlagsRejectsMissingValueAndBadValue) {
    const auto missing = Config::try_from_flags({"--ranks"});
    EXPECT_EQ(missing.error, ConfigError::kMissingValue);
    EXPECT_EQ(missing.detail, "ranks");

    const auto bad = Config::try_from_flags({"--algorithm=NOPE"});
    EXPECT_EQ(bad.error, ConfigError::kBadValue);
    EXPECT_FALSE(bad.message().empty());

    const auto not_a_flag = Config::try_from_flags({"ranks=4"});
    EXPECT_EQ(not_a_flag.error, ConfigError::kBadValue);

    // Out-of-range doubles: an AMQ false-positive rate outside (0, 1), and
    // negative or non-finite machine parameters (a negative --alpha used to
    // give a DITRIC count a negative total_time).
    for (const std::string flag :
         {"--amq-fpr=1.5", "--amq-fpr=1", "--amq-fpr=0", "--amq-fpr=-0.1",
          "--amq-fpr=nan", "--alpha=-1e-3", "--alpha=inf", "--alpha=nan",
          "--beta=-1e-9", "--beta=inf", "--beta=nan", "--compute-op=-1e-9",
          "--compute-op=inf", "--compute-op=nan", "--phase-timeout=-1",
          "--deadline=-1"}) {
        const auto parse = Config::try_from_flags({flag});
        EXPECT_EQ(parse.error, ConfigError::kBadValue) << flag;
        EXPECT_FALSE(parse.config.has_value()) << flag;
    }
    const auto edge = Config::try_from_flags(
        {"--amq-fpr=0.999", "--alpha=0", "--beta=0", "--compute-op=0"});
    ASSERT_TRUE(edge.ok()) << edge.message();
    EXPECT_EQ(edge.config->amq.target_fpr, 0.999);
    EXPECT_EQ(edge.config->network.alpha, 0.0);
}

TEST(Config, TryFromFlagsRejectsRetiredIntersectKinds) {
    // Only merge and adaptive remain; every retired kernel name is a typed
    // bad value that names what was passed.
    for (const std::string name : {"binary", "hybrid", "galloping", "simd", "bitmap"}) {
        const auto parse = Config::try_from_flags({"--intersect=" + name});
        EXPECT_EQ(parse.error, ConfigError::kBadValue) << name;
        EXPECT_NE(parse.detail.find("'" + name + "'"), std::string::npos) << parse.detail;
    }
    for (const auto kind : seq::all_intersect_kinds()) {
        const auto name = seq::intersect_kind_name(kind);
        const auto parse = Config::try_from_flags({"--intersect=" + name});
        ASSERT_TRUE(parse.ok()) << name << ": " << parse.message();
        EXPECT_EQ(parse.config->options.intersect, kind);
    }
}

TEST(Config, TryFromFlagsRejectsWrappedOrTruncatedNumbers) {
    // Each of these used to parse "successfully" into a wrapped or
    // truncated value (e.g. --ranks=-1 gave 4294967295, --threads=4x gave 4).
    for (const std::string flag :
         {"--ranks=-1", "--ranks=4294967297", "--ranks=1e3", "--threads=4x",
          "--max-retries=-1", "--threads=2147483648", "--serve-threads=4294967296",
          "--pes-per-node=4294967296", "--max-retries=4294967296",
          "--buffer-threshold=18446744073709551616", "--alpha=1e-6s"}) {
        const auto parse = Config::try_from_flags({flag});
        EXPECT_EQ(parse.error, ConfigError::kBadValue) << flag;
        EXPECT_FALSE(parse.config.has_value()) << flag;
    }
    // The largest value each field can hold still parses.
    const auto edge = Config::try_from_flags(
        {"--ranks=4294967295", "--threads=2147483647", "--max-retries=4294967295"});
    ASSERT_TRUE(edge.ok()) << edge.message();
    EXPECT_EQ(edge.config->num_ranks, 4294967295u);
    EXPECT_EQ(edge.config->options.threads, 2147483647);
    EXPECT_EQ(edge.config->max_retries, 4294967295u);
}

TEST(Config, PresetNamesAllConstruct) {
    EXPECT_FALSE(Config::preset_names().empty());
    for (const auto& name : Config::preset_names()) {
        (void)Config::preset(name);  // must not throw
    }
    // Spot checks on the semantics.
    EXPECT_EQ(Config::preset("paper-cetric").algorithm, core::Algorithm::kCetric);
    EXPECT_EQ(Config::preset("cloud-indirect").network,
              net::NetworkConfig::cloud_like());
    EXPECT_TRUE(Config::preset("streaming-lcc").maintain_lcc);
    EXPECT_EQ(Config::preset("adaptive-kernels").options.intersect,
              seq::IntersectKind::kAdaptive);
}

/// The flag names a parser set up by register_cli declares, read off its
/// usage text ("  --name <value>" lines), without --help.
std::vector<std::string> declared_flags() {
    CliParser cli("test", "declared flags");
    Config::register_cli(cli);
    std::vector<std::string> names;
    std::istringstream usage(cli.usage());
    for (std::string line; std::getline(usage, line);) {
        if (line.rfind("  --", 0) != 0 || line == "  --help") { continue; }
        names.push_back(line.substr(4, line.find(' ', 4) - 4));
    }
    return names;
}

TEST(Config, EveryDeclaredFlagSerializesExactlyOnce) {
    // A hand-tuned network makes every machine-model number explicit, so
    // to_flags writes all declared flags.
    const Config config = fully_customized();
    const auto flags = config.to_flags();
    const auto names = declared_flags();
    EXPECT_EQ(names.size(), 33u);
    EXPECT_EQ(flags.size(), names.size());
    for (const auto& name : names) {
        const auto prefix = "--" + name + "=";
        const auto hits = std::count_if(flags.begin(), flags.end(), [&](const auto& f) {
            return f.rfind(prefix, 0) == 0;
        });
        EXPECT_EQ(hits, 1) << name;
    }
}

TEST(Config, EveryPresetSerializesToItsPinnedFlags) {
    const std::vector<std::pair<std::string, std::string>> pinned = {
        {"default",
         "--algorithm=DITRIC --ranks=4 --partition=balanced --network=supermuc "
         "--intersect=merge --hub-threshold=0 --buffer-threshold=0 --threads=1 "
         "--pes-per-node=8 --compress=0 --detect-termination=0 --indirect=0 "
         "--maintain-lcc=0 --reuse-preprocessing=0 --charge-reused-preprocessing=0 "
         "--metrics=0 --trace-out= --serve-threads=0 --queue-depth=0 --fault-spec= "
         "--harden=0 --recovery=retry --max-retries=3 --phase-timeout=0 --deadline=0 "
         "--amq-fpr=0.02 --amq-truthful=1 --amq-adaptive=0 --amq-seed=24301"},
        {"paper-ditric",
         "--algorithm=DITRIC --ranks=16 --partition=balanced --network=supermuc "
         "--intersect=merge --hub-threshold=0 --buffer-threshold=0 --threads=1 "
         "--pes-per-node=8 --compress=0 --detect-termination=0 --indirect=0 "
         "--maintain-lcc=0 --reuse-preprocessing=0 --charge-reused-preprocessing=0 "
         "--metrics=0 --trace-out= --serve-threads=0 --queue-depth=0 --fault-spec= "
         "--harden=0 --recovery=retry --max-retries=3 --phase-timeout=0 --deadline=0 "
         "--amq-fpr=0.02 --amq-truthful=1 --amq-adaptive=0 --amq-seed=24301"},
        {"paper-cetric",
         "--algorithm=CETRIC --ranks=16 --partition=balanced --network=supermuc "
         "--intersect=merge --hub-threshold=0 --buffer-threshold=0 --threads=1 "
         "--pes-per-node=8 --compress=0 --detect-termination=0 --indirect=0 "
         "--maintain-lcc=0 --reuse-preprocessing=0 --charge-reused-preprocessing=0 "
         "--metrics=0 --trace-out= --serve-threads=0 --queue-depth=0 --fault-spec= "
         "--harden=0 --recovery=retry --max-retries=3 --phase-timeout=0 --deadline=0 "
         "--amq-fpr=0.02 --amq-truthful=1 --amq-adaptive=0 --amq-seed=24301"},
        {"cloud-indirect",
         "--algorithm=DITRIC2 --ranks=16 --partition=balanced --network=cloud "
         "--intersect=merge --hub-threshold=0 --buffer-threshold=0 --threads=1 "
         "--pes-per-node=8 --compress=0 --detect-termination=0 --indirect=1 "
         "--maintain-lcc=0 --reuse-preprocessing=0 --charge-reused-preprocessing=0 "
         "--metrics=0 --trace-out= --serve-threads=0 --queue-depth=0 --fault-spec= "
         "--harden=0 --recovery=retry --max-retries=3 --phase-timeout=0 --deadline=0 "
         "--amq-fpr=0.02 --amq-truthful=1 --amq-adaptive=0 --amq-seed=24301"},
        {"adaptive-kernels",
         "--algorithm=CETRIC --ranks=16 --partition=balanced --network=supermuc "
         "--intersect=adaptive --hub-threshold=0 --buffer-threshold=0 --threads=1 "
         "--pes-per-node=8 --compress=0 --detect-termination=0 --indirect=0 "
         "--maintain-lcc=0 --reuse-preprocessing=0 --charge-reused-preprocessing=0 "
         "--metrics=0 --trace-out= --serve-threads=0 --queue-depth=0 --fault-spec= "
         "--harden=0 --recovery=retry --max-retries=3 --phase-timeout=0 --deadline=0 "
         "--amq-fpr=0.02 --amq-truthful=1 --amq-adaptive=0 --amq-seed=24301"},
        {"hybrid",
         "--algorithm=CETRIC --ranks=8 --partition=balanced --network=supermuc "
         "--intersect=merge --hub-threshold=0 --buffer-threshold=0 --threads=6 "
         "--pes-per-node=8 --compress=0 --detect-termination=0 --indirect=0 "
         "--maintain-lcc=0 --reuse-preprocessing=0 --charge-reused-preprocessing=0 "
         "--metrics=0 --trace-out= --serve-threads=0 --queue-depth=0 --fault-spec= "
         "--harden=0 --recovery=retry --max-retries=3 --phase-timeout=0 --deadline=0 "
         "--amq-fpr=0.02 --amq-truthful=1 --amq-adaptive=0 --amq-seed=24301"},
        {"streaming-lcc",
         "--algorithm=CETRIC --ranks=4 --partition=balanced --network=supermuc "
         "--intersect=adaptive --hub-threshold=0 --buffer-threshold=0 --threads=1 "
         "--pes-per-node=8 --compress=0 --detect-termination=0 --indirect=0 "
         "--maintain-lcc=1 --reuse-preprocessing=0 --charge-reused-preprocessing=0 "
         "--metrics=0 --trace-out= --serve-threads=0 --queue-depth=0 --fault-spec= "
         "--harden=0 --recovery=retry --max-retries=3 --phase-timeout=0 --deadline=0 "
         "--amq-fpr=0.02 --amq-truthful=1 --amq-adaptive=0 --amq-seed=24301"},
        {"approx-adaptive",
         "--algorithm=CETRIC --ranks=16 --partition=balanced --network=supermuc "
         "--intersect=merge --hub-threshold=0 --buffer-threshold=0 --threads=1 "
         "--pes-per-node=8 --compress=0 --detect-termination=0 --indirect=0 "
         "--maintain-lcc=0 --reuse-preprocessing=0 --charge-reused-preprocessing=0 "
         "--metrics=0 --trace-out= --serve-threads=0 --queue-depth=0 --fault-spec= "
         "--harden=0 --recovery=retry --max-retries=3 --phase-timeout=0 --deadline=0 "
         "--amq-fpr=0.02 --amq-truthful=1 --amq-adaptive=1 --amq-seed=24301"},
        {"warm-monitor",
         "--algorithm=CETRIC --ranks=16 --partition=balanced --network=supermuc "
         "--intersect=adaptive --hub-threshold=0 --buffer-threshold=0 --threads=1 "
         "--pes-per-node=8 --compress=0 --detect-termination=0 --indirect=0 "
         "--maintain-lcc=0 --reuse-preprocessing=1 --charge-reused-preprocessing=0 "
         "--metrics=0 --trace-out= --serve-threads=0 --queue-depth=0 --fault-spec= "
         "--harden=0 --recovery=retry --max-retries=3 --phase-timeout=0 --deadline=0 "
         "--amq-fpr=0.02 --amq-truthful=1 --amq-adaptive=0 --amq-seed=24301"},
        {"hardened-serve",
         "--algorithm=CETRIC --ranks=16 --partition=balanced --network=supermuc "
         "--intersect=adaptive --hub-threshold=0 --buffer-threshold=0 --threads=1 "
         "--pes-per-node=8 --compress=0 --detect-termination=0 --indirect=0 "
         "--maintain-lcc=0 --reuse-preprocessing=1 --charge-reused-preprocessing=0 "
         "--metrics=1 --trace-out= --serve-threads=0 --queue-depth=0 --fault-spec= "
         "--harden=1 --recovery=retry --max-retries=3 --phase-timeout=0 --deadline=0 "
         "--amq-fpr=0.02 --amq-truthful=1 --amq-adaptive=0 --amq-seed=24301"},
    };
    ASSERT_EQ(pinned.size(), Config::preset_names().size());
    for (std::size_t i = 0; i < pinned.size(); ++i) {
        const auto& [name, expected] = pinned[i];
        EXPECT_EQ(Config::preset_names()[i], name);
        std::string line;
        for (const auto& flag : Config::preset(name).to_flags()) {
            line += (line.empty() ? "" : " ") + flag;
        }
        EXPECT_EQ(line, expected) << name;
    }
}

TEST(Config, ThreadsAndPesPerNodeMustBeAtLeastOne) {
    // Both run as 1 when 0 (the hybrid binner and the two-level router clamp
    // them), so 0 would make two configs that run the same compare unequal.
    for (const std::string flag : {"threads", "pes-per-node"}) {
        const auto parse = Config::try_from_flags({"--" + flag + "=0"});
        EXPECT_EQ(parse.error, ConfigError::kBadValue) << flag;
        const auto message = "--" + flag + " must be at least 1";
        EXPECT_NE(parse.detail.find(message), std::string::npos) << parse.detail;
        EXPECT_TRUE(Config::try_from_flags({"--" + flag + "=1"}).ok()) << flag;
    }
}

TEST(Config, HelpIsAnUnknownFlagAndPrintsNothing) {
    testing::internal::CaptureStdout();
    const auto parse = Config::try_from_flags({"--help"});
    EXPECT_EQ(testing::internal::GetCapturedStdout(), "");
    EXPECT_EQ(parse.error, ConfigError::kUnknownFlag);
    EXPECT_EQ(parse.detail, "help");
    const auto short_help = Config::try_from_flags({"-h"});
    EXPECT_EQ(short_help.error, ConfigError::kBadValue);
    EXPECT_EQ(short_help.detail, "'-h' is not a --flag token");
}

TEST(Config, CommandLineQuotesShellMetacharacters) {
    Config config;
    config.fault_spec = "seed=42;drop=0.01";
    config.trace_out = "/tmp/my trace.json";
    const auto line = config.to_command_line();
    EXPECT_NE(line.find(" '--fault-spec=seed=42;drop=0.01' "), std::string::npos) << line;
    EXPECT_NE(line.find(" '--trace-out=/tmp/my trace.json' "), std::string::npos) << line;
    // Plain tokens stay bare, and a quote inside a token is escaped.
    EXPECT_NE(line.find(" --ranks=4 "), std::string::npos) << line;
    config.trace_out = "it's.json";
    EXPECT_NE(config.to_command_line().find(R"( '--trace-out=it'\''s.json' )"),
              std::string::npos);
}

TEST(Config, RunSpecInteropIsLossless) {
    core::RunSpec spec;
    spec.algorithm = core::Algorithm::kDitric2;
    spec.num_ranks = 11;
    spec.partition = core::PartitionStrategy::kUniformVertices;
    spec.network.alpha = 1e-4;
    spec.options.threads = 4;
    const auto config = Config::from_run_spec(spec);
    const auto back = config.run_spec();
    EXPECT_EQ(back.algorithm, spec.algorithm);
    EXPECT_EQ(back.num_ranks, spec.num_ranks);
    EXPECT_EQ(back.partition, spec.partition);
    EXPECT_EQ(back.network, spec.network);
    EXPECT_TRUE(back.options == spec.options);
}

TEST(Config, CommandLineAndDescribeAreUsable) {
    const Config config = Config::preset("paper-cetric");
    const auto line = config.to_command_line();
    EXPECT_NE(line.find("--algorithm=CETRIC"), std::string::npos);
    EXPECT_NE(line.find("--ranks=16"), std::string::npos);
    EXPECT_NE(config.describe().find("CETRIC"), std::string::npos);
}

TEST(Config, PartitionStrategyNamesRoundTrip) {
    for (const auto strategy : {core::PartitionStrategy::kUniformVertices,
                                core::PartitionStrategy::kBalancedEdges}) {
        EXPECT_EQ(parse_partition_strategy(partition_strategy_name(strategy)), strategy);
    }
}

}  // namespace
}  // namespace katric
