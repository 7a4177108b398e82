#include "graph/io.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <string>

#include "graph/builder.hpp"
#include "support/scratch_dir.hpp"
#include "support/test_graphs.hpp"
#include "util/assert.hpp"

namespace katric::graph {
namespace {

class IoTest : public ::testing::Test {
protected:
    /// Writes `text` to a fresh file in the case's scratch directory.
    std::string write_file(const std::string& name, const std::string& text) const {
        const auto path = dir_.file(name);
        std::ofstream(path) << text;
        return path;
    }

    /// The assertion_error message `read` throws; empty if it throws none.
    template <typename Read>
    static std::string rejection(const Read& read) {
        try {
            read();
        } catch (const assertion_error& e) {
            return e.what();
        }
        return "";
    }

    test::ScratchDir dir_;
};

TEST_F(IoTest, TextRoundTrip) {
    const CsrGraph g = katric::test::bowtie_graph();
    const auto path = dir_.file("bowtie.txt");
    write_edge_list_text(to_edge_list(g), path);
    const CsrGraph back = build_undirected(read_edge_list_text(path), g.num_vertices());
    EXPECT_EQ(back.offsets(), g.offsets());
    EXPECT_EQ(back.targets(), g.targets());
}

TEST_F(IoTest, TextSkipsCommentsAndInterpretsDirectedAsUndirected) {
    const auto path = write_file(
        "comments.txt", "# SNAP-style comment\n% KONECT-style comment\n0 1\n1 0\n2 1\n");
    const auto edges = read_edge_list_text(path);
    const CsrGraph g = build_undirected(edges);
    EXPECT_EQ(g.num_edges(), 2u);  // 0-1 deduped, 1-2
    EXPECT_TRUE(g.has_edge(0, 1));
    EXPECT_TRUE(g.has_edge(1, 2));
}

TEST_F(IoTest, TextKeepsTrailingColumnsAndSkipsBlankLines) {
    // KONECT rows carry a weight and a timestamp after the endpoints.
    const auto path = write_file("konect.txt", "0 1 1 1234567\n  \n1\t2 0.5\r\n");
    const CsrGraph g = build_undirected(read_edge_list_text(path));
    EXPECT_EQ(g.num_edges(), 2u);
    EXPECT_TRUE(g.has_edge(0, 1));
    EXPECT_TRUE(g.has_edge(1, 2));
}

TEST_F(IoTest, TextRejectsAMalformedLineNamingPathAndLine) {
    // Dropping such a line, or reading "-1" as ID 2^64 − 1, changes the graph
    // unseen.
    for (const std::string bad : {"-1 2", "1", "x 2", "1 2x", "3 18446744073709551615",
                                  "3 18446744073709551616"}) {
        SCOPED_TRACE(bad);
        const auto path = write_file("bad.txt", "# header\n0 1\n" + bad + "\n");
        const auto message = rejection([&] { (void)read_edge_list_text(path); });
        EXPECT_NE(message.find(path + ":3"), std::string::npos) << message;
    }
}

TEST_F(IoTest, MissingFileThrows) {
    EXPECT_THROW((void)read_edge_list_text(dir_.file("missing.txt")), assertion_error);
    EXPECT_THROW((void)read_metis(dir_.file("missing.metis")), assertion_error);
}

class MetisIoTest : public IoTest {};

TEST_F(MetisIoTest, RoundTrip) {
    const CsrGraph g =
        gen::generate_rgg2d(256, gen::rgg2d_radius_for_degree(256, 8.0), 3);
    const auto path = dir_.file("g.metis");
    write_metis(g, path);
    const CsrGraph back = read_metis(path);
    EXPECT_EQ(back.num_vertices(), g.num_vertices());
    EXPECT_EQ(back.offsets(), g.offsets());
    EXPECT_EQ(back.targets(), g.targets());
}

TEST_F(MetisIoTest, ReadsHandWrittenFile) {
    // Triangle plus pendant vertex (1-indexed METIS adjacency).
    const auto path =
        write_file("hand.metis", "% comment line\n4 4\n2 3\n1 3\n1 2 4\n3\n");
    const CsrGraph g = read_metis(path);
    EXPECT_EQ(g.num_vertices(), 4u);
    EXPECT_EQ(g.num_edges(), 4u);
    EXPECT_TRUE(g.has_edge(0, 1));
    EXPECT_TRUE(g.has_edge(2, 3));
    EXPECT_FALSE(g.has_edge(0, 3));
}

TEST_F(MetisIoTest, RejectsBadHeaderAndTruncation) {
    EXPECT_THROW((void)read_metis(write_file("bad.metis", "notanumber\n")),
                 assertion_error);
    // Promises 3 vertex lines, has 1.
    EXPECT_THROW((void)read_metis(write_file("short.metis", "3 2\n2\n")),
                 assertion_error);
}

TEST_F(MetisIoTest, EdgeCountMismatchRejected) {
    // Claims 5 edges, contains 1.
    EXPECT_THROW((void)read_metis(write_file("mismatch.metis", "2 5\n2\n1\n")),
                 assertion_error);
}

TEST_F(MetisIoTest, HugeEdgeClaimIsNotReservedUpFront) {
    // 2^60 claimed edges in a 12-byte file: rejected by the count check, not
    // by an allocation the header asked for.
    const auto path = write_file("huge.metis", "2 1152921504606846976\n2\n1\n");
    const auto message = rejection([&] { (void)read_metis(path); });
    EXPECT_NE(message.find("claims"), std::string::npos) << message;
}

TEST_F(MetisIoTest, RejectsMalformedNeighborTokens) {
    for (const std::string row : {"2x", "-1", "0", "3"}) {
        SCOPED_TRACE(row);
        EXPECT_THROW((void)read_metis(write_file("row.metis", "2 1\n" + row + "\n1\n")),
                     assertion_error);
    }
}

}  // namespace
}  // namespace katric::graph
