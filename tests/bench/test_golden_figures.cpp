#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "figures.hpp"
#include "support/golden.hpp"

namespace katric::bench {
namespace {

/// The figure golden: every bench_figures spec at its smoke tier, one line
/// per printed row, pinned in tests/bench/golden_figures.txt with the same
/// rules and KATRIC_GOLDEN_OUT workflow as tests/core/golden_reports.txt.
const std::map<std::string, Sections>& smoke_runs() {
    static const auto runs = [] {
        std::map<std::string, Sections> result;
        for (const auto& spec : figure_specs()) {
            result[spec.name] = run_figure(spec, spec.smoke, Config{});
        }
        return result;
    }();
    return runs;
}

std::vector<std::string> golden_lines() {
    std::vector<std::string> lines;
    for (const auto& spec : figure_specs()) {
        for (const auto& section : smoke_runs().at(spec.name)) {
            for (std::size_t i = 0; i < section.rows.size(); ++i) {
                test::Line line(spec.name + "/" + section.series + "/"
                                + std::to_string(i));
                for (std::size_t c = 0; c < section.rows[i].size(); ++c) {
                    const auto key = column_key(section.columns[c]);
                    std::visit([&](const auto& value) { line.add(key, value); },
                               section.rows[i][c].value);
                }
                lines.push_back(line.text());
            }
        }
    }
    return lines;
}

/// Body rows of every table in bench_figures output: the lines between a
/// table's dashed rule and the blank line after it.
std::size_t printed_rows(const std::string& output) {
    std::istringstream in(output);
    std::size_t rows = 0;
    bool in_table = false;
    for (std::string line; std::getline(in, line);) {
        if (line.empty()) {
            in_table = false;
        } else if (line.find_first_not_of('-') == std::string::npos) {
            in_table = true;
        } else if (in_table) {
            ++rows;
        }
    }
    return rows;
}

std::size_t json_rows(const JsonWriter& json) {
    const auto text = json.to_string();
    std::size_t rows = 0;
    for (auto at = text.find("\"figure\""); at != std::string::npos;
         at = text.find("\"figure\"", at + 1)) {
        ++rows;
    }
    return rows;
}

TEST(GoldenFigures, SmokeRowsMatchTheCheckedInGolden) {
    const auto actual = golden_lines();
    const auto golden = test::read_golden(KATRIC_GOLDEN_FILE);
    test::write_golden(KATRIC_GOLDEN_OUT, actual, golden);

    ASSERT_FALSE(golden.empty()) << "missing golden " << KATRIC_GOLDEN_FILE
                                 << "; recomputed file written to " << KATRIC_GOLDEN_OUT;
    const auto diff = test::golden_mismatch(golden, actual);
    EXPECT_TRUE(diff.empty()) << diff << "\nrecomputed file: " << KATRIC_GOLDEN_OUT;
}

TEST(GoldenFigures, PaperClaimsHoldOnTheSmokeRows) {
    for (const auto& spec : figure_specs()) {
        for (const auto& claim : spec.claims) {
            EXPECT_TRUE(claim.holds(smoke_runs().at(spec.name)))
                << spec.name << ": " << claim.text;
        }
    }
}

TEST(GoldenFigures, EveryPrintedRowReachesTheJson) {
    for (const auto& spec : figure_specs()) {
        std::ostringstream out;
        JsonWriter json;
        emit(spec, Config{}, smoke_runs().at(spec.name), out, json);
        EXPECT_GT(json_rows(json), 0u) << spec.name;
        EXPECT_EQ(printed_rows(out.str()), json_rows(json))
            << spec.name << '\n' << out.str();
    }
}

TEST(FigureSpecs, EveryTierIsWellFormed) {
    for (const auto& spec : figure_specs()) {
        for (const auto* tier : {&spec.full, &spec.smoke}) {
            const auto where = spec.name + (tier == &spec.full ? " full" : " smoke");
            for (const auto p : tier->ps) {
                EXPECT_GE(p, 1u) << where;
                for (const auto threads : tier->threads) {
                    ASSERT_GE(threads, 1u) << where;
                    EXPECT_EQ(p % threads, 0u)
                        << where << ": " << threads << " threads do not divide " << p;
                }
            }
            if (!spec.rows) { EXPECT_FALSE(tier->instances.empty()) << where; }
            for (const auto& instance : tier->instances) {
                if (!spec.weak) { continue; }
                EXPECT_GE(tier->log_n, family_shift(instance)) << where;
            }
        }
    }
}

TEST(BenchFigures, UnknownFigureExitsNonZeroWithTheValidNames) {
    const char* argv[] = {"bench_figures", "--figure=fig99"};
    std::ostringstream out;
    std::ostringstream err;
    EXPECT_NE(figures_main(2, argv, out, err), 0);
    EXPECT_TRUE(out.str().empty());
    for (const auto& spec : figure_specs()) {
        EXPECT_NE(err.str().find(spec.name), std::string::npos) << err.str();
    }
}

}  // namespace
}  // namespace katric::bench
