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
inline void print_header(const std::string& what, const Config& config,
                         std::ostream& out = std::cout) {
    out << "=== " << what << " ===\n"
        << "machine model: " << config.network.describe() << '\n'
        << "time = simulated seconds on the modeled machine; msgs/volume are exact"
        << "\n\n";
}

}  // namespace katric::bench
