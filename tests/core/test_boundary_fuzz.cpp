// Deterministic mutation fuzzing of the trust boundaries (run under
// ASan/UBSan in the CI sanitizer leg): every preset's flags with each token
// dropped, duplicated, cut short or given -1, 1e3, 2^64 or nothing; every
// truncation and single-byte replacement of a written edge-list and METIS
// file; a churn batch with one event's time NaN, ±inf or out of order, an
// endpoint at n or 2^64 − 1, or a self-loop. Each input must parse to
// something valid or fail typed: no crash, no untyped exception.

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "config.hpp"
#include "engine.hpp"
#include "graph/builder.hpp"
#include "graph/io.hpp"
#include "seq/edge_iterator.hpp"
#include "stream/edge_stream.hpp"
#include "support/scratch_dir.hpp"
#include "support/test_graphs.hpp"
#include "util/assert.hpp"

namespace katric {
namespace {

// --- Config flags ---------------------------------------------------------

/// A typed rejection, or a Config that survives its own round trip.
void expect_parses_or_fails_typed(const std::vector<std::string>& flags) {
    ConfigParse parse;
    ASSERT_NO_THROW(parse = Config::try_from_flags(flags));
    if (!parse.ok()) {
        EXPECT_FALSE(parse.config.has_value());
        EXPECT_FALSE(parse.message().empty());
        return;
    }
    ASSERT_TRUE(parse.config.has_value());
    const auto again = Config::try_from_flags(parse.config->to_flags());
    ASSERT_TRUE(again.ok()) << again.message();
    EXPECT_TRUE(*again.config == *parse.config);
}

class ConfigFlagFuzz : public ::testing::TestWithParam<std::string> {};

TEST_P(ConfigFlagFuzz, EveryTokenMutationParsesOrFailsTyped) {
    const auto preset = Config::preset(GetParam());
    const auto flags = preset.to_flags();
    const auto clean = Config::try_from_flags(flags);
    ASSERT_TRUE(clean.ok()) << clean.message();
    EXPECT_TRUE(*clean.config == preset) << "the preset does not round-trip";
    for (std::size_t i = 0; i < flags.size(); ++i) {
        SCOPED_TRACE(flags[i]);
        auto dropped = flags;
        dropped.erase(dropped.begin() + static_cast<std::ptrdiff_t>(i));
        expect_parses_or_fails_typed(dropped);

        auto duplicated = flags;
        duplicated.insert(duplicated.begin() + static_cast<std::ptrdiff_t>(i), flags[i]);
        expect_parses_or_fails_typed(duplicated);

        for (std::size_t keep = 0; keep < flags[i].size(); ++keep) {
            auto truncated = flags;
            truncated[i].resize(keep);
            expect_parses_or_fails_typed(truncated);
        }

        const auto name = flags[i].substr(0, flags[i].find('='));
        for (const std::string value : {"-1", "1e3", "18446744073709551616", ""}) {
            auto replaced = flags;
            replaced[i] = name + "=" + value;
            expect_parses_or_fails_typed(replaced);
        }
    }
}

std::string preset_case_name(const ::testing::TestParamInfo<std::string>& preset) {
    std::string name = preset.param;
    std::replace(name.begin(), name.end(), '-', '_');
    return name;
}

INSTANTIATE_TEST_SUITE_P(Presets, ConfigFlagFuzz,
                         ::testing::ValuesIn(Config::preset_names()), preset_case_name);

// --- graph files ----------------------------------------------------------

/// The text of `path`.
std::string slurp(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// Runs `check(path)` on every truncation and every single-byte
/// replacement of `text`, each written to `path` first.
template <typename Check>
void for_each_mutation(const std::string& text, const std::string& path,
                       const Check& check) {
    const auto write = [&](const std::string& contents) {
        std::ofstream(path, std::ios::binary | std::ios::trunc) << contents;
        check(path);
    };
    for (std::size_t keep = 0; keep < text.size(); ++keep) {
        SCOPED_TRACE("truncated to " + std::to_string(keep) + " bytes");
        write(text.substr(0, keep));
    }
    for (std::size_t at = 0; at < text.size(); ++at) {
        for (int byte = 0; byte < 256; ++byte) {
            if (static_cast<char>(byte) == text[at]) { continue; }
            SCOPED_TRACE("byte " + std::to_string(at) + " := " + std::to_string(byte));
            auto mutated = text;
            mutated[at] = static_cast<char>(byte);
            write(mutated);
        }
    }
}

TEST(GraphFileFuzz, EdgeListTextMutationsParseOrFailTyped) {
    const test::ScratchDir dir;
    const auto source = dir.file("bowtie.txt");
    graph::write_edge_list_text(graph::to_edge_list(test::bowtie_graph()), source);
    const auto check = [](const std::string& path) {
        graph::EdgeList edges;
        try {
            edges = graph::read_edge_list_text(path);
        } catch (const assertion_error&) {
            return;
        }
        Error error;
        const auto g = graph::try_build_undirected(edges, 0, &error);
        if (g.has_value()) {
            (void)seq::count_edge_iterator(*g);  // walks every row
        } else {
            EXPECT_EQ(error, core::RunError::kInvalidInput);
        }
    };
    for_each_mutation(slurp(source), dir.file("mutated.txt"), check);
}

TEST(GraphFileFuzz, MetisMutationsParseOrFailTyped) {
    const test::ScratchDir dir;
    const auto source = dir.file("bowtie.metis");
    graph::write_metis(test::bowtie_graph(), source);
    const auto check = [](const std::string& path) {
        try {
            (void)seq::count_edge_iterator(graph::read_metis(path));
        } catch (const assertion_error&) {
        }
    };
    for_each_mutation(slurp(source), dir.file("mutated.metis"), check);
}

// --- stream batches -------------------------------------------------------

TEST(EdgeBatchFuzz, EveryEventMutationIsAppliedOrRejectedAtomically) {
    const auto g = test::complete_graph(12);
    Config config;
    config.algorithm = core::Algorithm::kCetric;
    config.num_ranks = 4;
    config.maintain_lcc = true;
    const Engine engine(g, config);
    auto session = engine.open_stream();
    const auto batch = stream::make_churn_stream(g, 16, 0.5, 99).batches_of(16).front();
    constexpr double kInf = std::numeric_limits<double>::infinity();
    const char* const kinds[] = {"NaN time", "+inf time",     "-inf time", "swapped times",
                                 "u = n",    "v = 2^64 - 1", "self-loop"};
    for (std::size_t kind = 0; kind < std::size(kinds); ++kind) {
        for (std::size_t i = 0; i < batch.events.size(); ++i) {
            SCOPED_TRACE(std::string(kinds[kind]) + " at event " + std::to_string(i));
            auto mutated = batch;
            auto& event = mutated.events[i];
            auto& next = mutated.events[(i + 1) % mutated.events.size()];
            switch (kind) {
                case 0: event.time = std::numeric_limits<double>::quiet_NaN(); break;
                case 1: event.time = kInf; break;
                case 2: event.time = -kInf; break;
                case 3: std::swap(event.time, next.time); break;
                case 4: event.u = g.num_vertices(); break;
                case 5: event.v = graph::kInvalidVertex; break;
                default: event.v = event.u;  // a valid no-op request
            }
            const auto before = session.triangles();
            const auto stats = session.ingest(mutated);
            EXPECT_EQ(stats.error.ok(), kind == 6);  // churn times are distinct
            const auto current = session.materialize_global();
            EXPECT_EQ(session.triangles(), seq::count_edge_iterator(current).triangles);
            EXPECT_EQ(session.delta(), seq::per_vertex_triangles(current));
            if (!stats.error.ok()) {
                EXPECT_EQ(stats.error, core::RunError::kInvalidInput);
                EXPECT_EQ(stats.net_inserts + stats.net_deletes + stats.messages_sent, 0u);
                EXPECT_EQ(session.triangles(), before);
            }
        }
    }
}

}  // namespace
}  // namespace katric
