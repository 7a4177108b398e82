#include "graph/io.hpp"

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>

#include "graph/builder.hpp"
#include "util/assert.hpp"
#include "util/parse.hpp"

namespace katric::graph {

namespace {

/// A vertex-ID token: plain decimal digits naming an ID below kInvalidVertex
/// (parse_u64 rejects signs, trailing characters and values past 2^64 − 1).
bool parse_vertex(const std::string& token, VertexId& out) {
    std::uint64_t value = 0;
    if (!parse_u64(token, value) || value >= kInvalidVertex) { return false; }
    out = value;
    return true;
}

}  // namespace

EdgeList read_edge_list_text(const std::string& path) {
    std::ifstream in(path);
    KATRIC_ASSERT_MSG(in.good(), "cannot open " << path);
    EdgeList edges;
    std::string line;
    for (std::uint64_t line_number = 1; std::getline(in, line); ++line_number) {
        if (line.empty() || line[0] == '#' || line[0] == '%') { continue; }
        std::istringstream row(line);
        std::string first;
        std::string second;
        if (!(row >> first)) { continue; }  // whitespace only
        VertexId u = 0;
        VertexId v = 0;
        // Columns after the first two (KONECT weights, timestamps) are ignored.
        KATRIC_ASSERT_MSG(static_cast<bool>(row >> second) && parse_vertex(first, u)
                              && parse_vertex(second, v),
                          path << ":" << line_number << ": malformed edge line '" << line
                               << "' (expected two vertex IDs below 2^64 - 1)");
        edges.add(u, v);
    }
    return edges;
}

void write_edge_list_text(const EdgeList& edges, const std::string& path) {
    std::ofstream out(path);
    KATRIC_ASSERT_MSG(out.good(), "cannot open " << path << " for writing");
    out << "# katric edge list, " << edges.size() << " edges\n";
    for (const auto& e : edges.edges()) { out << e.u << ' ' << e.v << '\n'; }
}

CsrGraph read_metis(const std::string& path) {
    std::ifstream in(path);
    KATRIC_ASSERT_MSG(in.good(), "cannot open " << path);
    std::string line;
    // Only '%' lines are comments; an *empty* line is a vertex with no
    // neighbors and must count as data.
    auto next_data_line = [&]() {
        while (std::getline(in, line)) {
            if (line.empty() || line[0] != '%') { return true; }
        }
        return false;
    };
    KATRIC_ASSERT_MSG(next_data_line() && !line.empty(), "empty METIS file " << path);
    std::istringstream header(line);
    std::string n_token;
    std::string m_token;
    std::uint64_t n = 0;
    std::uint64_t m = 0;
    KATRIC_ASSERT_MSG(static_cast<bool>(header >> n_token >> m_token)
                          && parse_u64(n_token, n) && parse_u64(m_token, m),
                      "malformed METIS header in " << path);
    // The header's m is a claim, not a size: every edge is listed twice, at
    // two bytes or more each, so the file's size bounds what it can hold.
    std::error_code size_error;
    const std::uint64_t file_bytes = std::filesystem::file_size(path, size_error);
    EdgeList edges;
    edges.reserve(std::min<std::uint64_t>(m, size_error ? 0 : file_bytes / 4));
    for (VertexId v = 0; v < n; ++v) {
        KATRIC_ASSERT_MSG(next_data_line(),
                          "METIS file " << path << " truncated at vertex " << v);
        std::istringstream row(line);
        for (std::string token; row >> token;) {
            std::uint64_t neighbor_1indexed = 0;
            KATRIC_ASSERT_MSG(parse_u64(token, neighbor_1indexed)
                                  && neighbor_1indexed >= 1 && neighbor_1indexed <= n,
                              "METIS neighbor '" << token << "' of vertex " << v + 1
                                                 << " out of range in " << path);
            const VertexId u = neighbor_1indexed - 1;
            if (v < u) { edges.add(v, u); }  // each undirected edge listed twice
        }
    }
    const CsrGraph graph = build_undirected(std::move(edges), n);
    KATRIC_ASSERT_MSG(graph.num_edges() == m, "METIS header claims "
                                                  << m << " edges, found "
                                                  << graph.num_edges());
    return graph;
}

void write_metis(const CsrGraph& graph, const std::string& path) {
    KATRIC_ASSERT(!graph.is_oriented());
    std::ofstream out(path);
    KATRIC_ASSERT_MSG(out.good(), "cannot open " << path << " for writing");
    out << "% katric METIS export\n";
    out << graph.num_vertices() << ' ' << graph.num_edges() << '\n';
    for (VertexId v = 0; v < graph.num_vertices(); ++v) {
        bool first = true;
        for (VertexId u : graph.neighbors(v)) {
            out << (first ? "" : " ") << (u + 1);
            first = false;
        }
        out << '\n';
    }
}

}  // namespace katric::graph
