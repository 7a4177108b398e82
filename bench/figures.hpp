#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <variant>
#include <vector>

#include "engine.hpp"

namespace katric::bench {

/// A count, a label or a double. `digits` is how a double prints (decimals;
/// negative: scientific) and, when nonzero on a count, asks for SI units.
struct Cell {
    std::variant<std::uint64_t, double, std::string> value{};
    int digits = 0;
};

/// One printed table. Each row is also one JSON row and one golden line,
/// labelled with the figure and `series` and keyed by the column headers.
struct Section {
    std::string series{};
    std::string title{};
    std::vector<std::string> columns{};
    std::vector<std::vector<Cell>> rows{};
};
using Sections = std::vector<Section>;

/// The sizes of one tier; a figure reads the fields it sweeps.
struct Tier {
    std::vector<std::string> instances{};  ///< proxy, generator family or pattern
    std::uint64_t log_n = 0;               ///< log2 vertices (per PE when weak)
    std::vector<std::uint64_t> ps{};       ///< PE counts; fig8: core budgets
    std::vector<std::uint64_t> threads{};  ///< threads per rank
    std::vector<double> sweep{};           ///< δ, compression off/on, target FPR
                                           ///< or stream batch size
};

/// One Engine of a sweep: `p` ranks of `threads` threads, swept value `x`.
struct Point {
    std::uint64_t p = 1;
    std::uint64_t threads = 1;
    double x = 0.0;
};

/// A header of the sweeps' column vocabulary (figures.cpp) and its digits.
struct Column {
    std::string header{};
    int digits = 0;
};

/// A paper claim that the rows of a tier reproduce. `margin`, where set,
/// renders the measured value next to the claim's bound, printed beside the
/// verdict so that a thin margin shows up in review.
struct Claim {
    std::string text{};
    std::function<bool(const Sections&)> holds{};
    std::function<std::string(const Sections&)> margin{};
};

/// One figure, table or ablation. Without `rows` it runs the shared sweep:
/// per instance a section, per (p, sweep value) an Engine, per algorithm a
/// row of `columns`.
struct FigureSpec {
    std::string name{};  ///< the --figure value
    std::string title{};
    Tier full{};   ///< proxy scale
    Tier smoke{};  ///< the sizes tests/bench/golden_figures.txt pins
    std::uint64_t seed = 0;
    bool weak = false;      ///< n/p is fixed, so the instance grows with p
    bool variants = false;  ///< algorithms pair up (direct, indirect): the faster of
                            ///< each pair is the row, its phases a section
    std::vector<core::Algorithm> algorithms{};
    std::vector<Column> columns{};
    /// What a point sets in the Config beyond the rank count.
    std::function<void(Config&, const graph::CsrGraph&, const Point&, const Tier&)>
        tweak{};
    /// Replaces the shared sweep for rows that are the figure's own.
    std::function<Sections(const FigureSpec&, const Tier&, const Config&)> rows{};
    std::vector<Claim> claims{};
};

[[nodiscard]] const std::vector<FigureSpec>& figure_specs();

/// log2 of how many times fewer vertices per PE a weak-scaling family gets
/// (GNM and RMAT: 4x, as in the paper).
[[nodiscard]] std::uint64_t family_shift(const std::string& instance);

[[nodiscard]] Sections run_figure(const FigureSpec& spec, const Tier& tier,
                                  const Config& config);

/// The JSON and golden key of a header: "time (s)" → "time_s".
[[nodiscard]] std::string column_key(const std::string& header);

/// Prints the header, every section and the claim verdicts, and appends
/// every printed row to `json`.
void emit(const FigureSpec& spec, const Config& config, const Sections& sections,
          std::ostream& out, JsonWriter& json);

/// The bench_figures command line; returns the exit status.
int figures_main(int argc, const char* const* argv, std::ostream& out, std::ostream& err);

}  // namespace katric::bench
