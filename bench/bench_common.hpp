#pragma once

#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "config.hpp"
#include "engine.hpp"
#include "report.hpp"
#include "util/assert.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace katric::bench {

/// Algorithm list parsing for `--algos DITRIC,CETRIC2,...`.
inline std::vector<core::Algorithm> parse_algorithms(const std::string& csv) {
    std::vector<core::Algorithm> result;
    std::string token;
    std::stringstream stream(csv);
    while (std::getline(stream, token, ',')) {
        const auto algorithm = core::parse_algorithm(token);
        if (!algorithm) { KATRIC_THROW("unknown algorithm '" << token << "'"); }
        result.push_back(*algorithm);
    }
    KATRIC_ASSERT_MSG(!result.empty(), "empty algorithm list");
    return result;
}

inline std::string default_algorithms_csv() {
    return "DITRIC,DITRIC2,CETRIC,CETRIC2,HavoqGT-style,TriC-style";
}

/// The one shared flag registrar (no per-bench copies): declares every
/// katric::Config flag — `--algorithm`, `--ranks`, `--network`,
/// `--intersect`, `--hub-threshold`, the machine-model overrides, the
/// streaming and AMQ knobs — plus the bench-side `--json` artifact path.
/// Benches pass their own defaults (e.g. 16 ranks) through `defaults`.
inline void add_engine_options(CliParser& cli, const Config& defaults = {}) {
    Config::register_cli(cli, defaults);
    cli.option("json", "", "write results as a JSON array to this path");
}

/// `--json` alone, for benches with no Engine underneath (micro kernels).
inline void add_json_option(CliParser& cli) {
    cli.option("json", "", "write results as a JSON array to this path");
}

/// The parsed Config behind add_engine_options.
inline Config engine_config(const CliParser& cli) { return Config::from_args(cli); }

/// Every bench prints its machine-model constants so results are
/// self-describing.
inline void print_header(const std::string& what, const net::NetworkConfig& config) {
    std::cout << "=== " << what << " ===\n"
              << "machine model: " << config.describe() << '\n'
              << "time = simulated seconds on the modeled machine; msgs/volume are exact"
              << "\n\n";
}

inline void print_header(const std::string& what, const Config& config) {
    print_header(what, config.network);
}

/// "OOM" or a fixed-precision number — the paper marks failed runs instead
/// of plotting them.
inline std::string time_or_oom(const core::CountResult& result) {
    if (result.oom) { return "OOM"; }
    std::ostringstream out;
    out << std::scientific << std::setprecision(3) << result.total_time;
    return out.str();
}

inline std::string time_or_oom(const Report& report) { return time_or_oom(report.count); }

}  // namespace katric::bench
