#include "util/cli.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "util/assert.hpp"

namespace katric {
namespace {

CliParser make_parser() {
    CliParser cli("prog", "test parser");
    cli.option("p", "4", "rank count")
        .option("name", "rgg2d", "instance")
        .option("ratio", "0.5", "a ratio")
        .option("ps", "1,2,4", "rank sweep")
        .flag("verbose", "chatty");
    return cli;
}

TEST(CliParser, DefaultsApply) {
    auto cli = make_parser();
    const char* argv[] = {"prog"};
    ASSERT_TRUE(cli.parse(1, argv));
    EXPECT_EQ(cli.get_uint("p"), 4u);
    EXPECT_EQ(cli.get_string("name"), "rgg2d");
    EXPECT_DOUBLE_EQ(cli.get_double("ratio"), 0.5);
    EXPECT_FALSE(cli.get_flag("verbose"));
}

TEST(CliParser, SpaceSeparatedValues) {
    auto cli = make_parser();
    const char* argv[] = {"prog", "--p", "16", "--name", "rhg", "--verbose"};
    ASSERT_TRUE(cli.parse(6, argv));
    EXPECT_EQ(cli.get_uint("p"), 16u);
    EXPECT_EQ(cli.get_string("name"), "rhg");
    EXPECT_TRUE(cli.get_flag("verbose"));
}

TEST(CliParser, EqualsSyntax) {
    auto cli = make_parser();
    const char* argv[] = {"prog", "--p=32", "--ratio=0.25"};
    ASSERT_TRUE(cli.parse(3, argv));
    EXPECT_EQ(cli.get_uint("p"), 32u);
    EXPECT_DOUBLE_EQ(cli.get_double("ratio"), 0.25);
}

TEST(CliParser, UintListParses) {
    auto cli = make_parser();
    const char* argv[] = {"prog", "--ps", "1,2,4,8,16"};
    ASSERT_TRUE(cli.parse(3, argv));
    EXPECT_EQ(cli.get_uint_list("ps"), (std::vector<std::uint64_t>{1, 2, 4, 8, 16}));
}

TEST(CliParser, UintRejectsSignTrailingCharactersAndOverflow) {
    for (const char* value : {"-1", "4x", "1e3", " 4", "", "18446744073709551616"}) {
        auto cli = make_parser();
        const std::string arg = std::string("--p=") + value;
        const char* argv[] = {"prog", arg.c_str()};
        ASSERT_TRUE(cli.parse(2, argv));
        EXPECT_THROW((void)cli.get_uint("p"), assertion_error) << "'" << value << "'";
    }
    auto cli = make_parser();
    const char* argv[] = {"prog", "--p=18446744073709551615"};
    ASSERT_TRUE(cli.parse(2, argv));
    EXPECT_EQ(cli.get_uint("p"), ~std::uint64_t{0});
}

TEST(CliParser, IntAndDoubleConsumeTheWholeToken) {
    auto cli = make_parser();
    const char* argv[] = {"prog", "--p=4x", "--ratio=0.25y"};
    ASSERT_TRUE(cli.parse(3, argv));
    EXPECT_THROW((void)cli.get_int("p"), assertion_error);
    EXPECT_THROW((void)cli.get_double("ratio"), assertion_error);

    auto clean = make_parser();
    const char* clean_argv[] = {"prog", "--p=-3", "--ratio=1e-3"};
    ASSERT_TRUE(clean.parse(3, clean_argv));
    EXPECT_EQ(clean.get_int("p"), -3);
    EXPECT_DOUBLE_EQ(clean.get_double("ratio"), 1e-3);
}

TEST(CliParser, UintListRejectsMalformedEntries) {
    auto cli = make_parser();
    const char* argv[] = {"prog", "--ps", "1,-2,4"};
    ASSERT_TRUE(cli.parse(3, argv));
    EXPECT_THROW((void)cli.get_uint_list("ps"), assertion_error);
}

TEST(CliParser, UnknownOptionThrows) {
    auto cli = make_parser();
    const char* argv[] = {"prog", "--bogus", "1"};
    EXPECT_THROW(cli.parse(3, argv), assertion_error);
}

TEST(CliParser, MissingValueThrows) {
    auto cli = make_parser();
    const char* argv[] = {"prog", "--p"};
    EXPECT_THROW(cli.parse(2, argv), assertion_error);
}

TEST(CliParser, HelpReturnsFalse) {
    auto cli = make_parser();
    const char* argv[] = {"prog", "--help"};
    EXPECT_FALSE(cli.parse(2, argv));
    EXPECT_NE(cli.usage().find("rank count"), std::string::npos);
}

/// The typed error parse(tokens) throws for `tokens`.
CliError parse_error(const std::vector<std::string>& tokens) {
    auto cli = make_parser();
    try {
        cli.parse(tokens);
    } catch (const CliError& error) {
        return error;
    }
    ADD_FAILURE() << "no CliError thrown";
    return CliError(CliError::Kind::kUnknownOption, "", "");
}

TEST(CliParser, RejectionsAreTypedWithTheOptionName) {
    const auto unknown = parse_error({"--p=4", "--bogus=1"});
    EXPECT_EQ(unknown.kind(), CliError::Kind::kUnknownOption);
    EXPECT_EQ(unknown.option(), "bogus");
    EXPECT_STREQ(unknown.what(), "unknown option --bogus");

    const auto missing = parse_error({"--name"});
    EXPECT_EQ(missing.kind(), CliError::Kind::kMissingValue);
    EXPECT_EQ(missing.option(), "name");

    const auto stray = parse_error({"p=4"});
    EXPECT_EQ(stray.kind(), CliError::Kind::kNotAnOption);
    EXPECT_EQ(stray.option(), "p=4");
}

TEST(CliParser, TokenParseTreatsHelpAsAnUnknownOption) {
    testing::internal::CaptureStdout();
    const auto help = parse_error({"--help"});
    EXPECT_EQ(testing::internal::GetCapturedStdout(), "");
    EXPECT_EQ(help.kind(), CliError::Kind::kUnknownOption);
    EXPECT_EQ(help.option(), "help");
    EXPECT_EQ(parse_error({"-h"}).kind(), CliError::Kind::kNotAnOption);

    // A help token in value position is the preceding option's value.
    auto cli = make_parser();
    cli.parse({"--name", "--help", "--p", "8", "--p=9"});
    EXPECT_EQ(cli.get_string("name"), "--help");
    EXPECT_EQ(cli.get_uint("p"), 9u);
    EXPECT_EQ(cli.duplicates(), std::vector<std::string>{"p"});
}

TEST(CliParser, UndeclaredLookupThrows) {
    auto cli = make_parser();
    const char* argv[] = {"prog"};
    ASSERT_TRUE(cli.parse(1, argv));
    EXPECT_THROW(cli.get_string("nope"), assertion_error);
}

}  // namespace
}  // namespace katric
