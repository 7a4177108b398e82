#include "figures.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <iomanip>
#include <memory>
#include <ostream>
#include <sstream>

#include "bench_common.hpp"
#include "gen/gnm.hpp"
#include "gen/proxies.hpp"
#include "gen/rgg2d.hpp"
#include "gen/rhg.hpp"
#include "gen/rmat.hpp"
#include "graph/graph_stats.hpp"
#include "graph/load_balance.hpp"
#include "graph/permutation.hpp"
#include "net/indirection.hpp"
#include "net/message_queue.hpp"
#include "seq/edge_iterator.hpp"
#include "util/assert.hpp"
#include "util/bits.hpp"

namespace katric::bench {
namespace {

using core::Algorithm;
using graph::CsrGraph;
using graph::VertexId;
using Row = std::vector<Cell>;

/// A generator family with m = 16n, optionally relabeled ("RGG2D/shuffled",
/// "RGG2D/bfs": shuffled, then in BFS order), or a Table I proxy by name.
CsrGraph instance(const std::string& name, VertexId n, std::uint64_t seed) {
    const auto family = name.substr(0, name.find('/'));
    CsrGraph g;
    if (family == "RGG2D") {
        g = gen::generate_rgg2d_local(n, gen::rgg2d_radius_for_degree(n, 16.0), seed);
    } else if (family == "RHG") {
        g = gen::generate_rhg_local(n, 16.0, 2.8, seed);
    } else if (family == "GNM") {
        g = gen::generate_gnm(n, 16 * n, seed);
    } else if (family == "RMAT") {
        g = gen::generate_rmat(static_cast<std::uint32_t>(floor_log2(n)), 16 * n, seed);
    } else {
        return gen::build_proxy(name);
    }
    if (family == name) { return g; }
    g = graph::apply_permutation(g, graph::random_permutation(n, 99));
    return name.ends_with("/bfs") ? graph::apply_permutation(g, graph::bfs_order(g)) : g;
}

std::string describe(const CsrGraph& g) {
    return "n=" + std::to_string(g.num_vertices())
           + ", m=" + std::to_string(g.num_edges());
}

std::string render(const Cell& cell) {
    if (const auto* text = std::get_if<std::string>(&cell.value)) { return *text; }
    if (const auto* count = std::get_if<std::uint64_t>(&cell.value)) {
        return cell.digits ? format_si(static_cast<double>(*count))
                           : std::to_string(*count);
    }
    std::ostringstream out;
    out << (cell.digits < 0 ? std::scientific : std::fixed)
        << std::setprecision(std::abs(cell.digits)) << std::get<double>(cell.value);
    return out.str();
}

double percent(std::uint64_t part, std::uint64_t whole) {
    return 100.0 * static_cast<double>(part) / static_cast<double>(whole);
}

struct Run {
    const CsrGraph& graph;
    const Engine& engine;
    const Point& point;
    const Report& report;
    const Report& reference;  ///< the same row slot at the section's first point
};

/// The sweeps' column vocabulary. A run that ran out of memory prints "OOM"
/// for its time and 0 for its counts, as the paper marks such runs.
Cell cell(const Column& column, const Run& r) {
    const auto& h = column.header;
    const auto& c = r.report.count;
    const auto count = [&](std::uint64_t value) { return Cell{c.oom ? 0 : value}; };
    const auto real = [&](double value) { return Cell{value, column.digits}; };
    if (h == "algo") { return {core::algorithm_name(r.report.algorithm)}; }
    if (h == "cores") { return {r.point.p * r.point.threads}; }
    if (h == "ranks") { return {r.point.p}; }
    if (h == "threads") { return {r.point.threads}; }
    if (h == "n") { return {std::uint64_t{r.graph.num_vertices()}}; }
    if (h == "delta (words)") { return {static_cast<std::uint64_t>(r.point.x)}; }
    if (h == "compressed") { return {r.point.x != 0.0 ? "yes" : "no"}; }
    if (h == "time (s)") { return c.oom ? Cell{"OOM"} : real(c.total_time); }
    if (h == "preprocessing (s)") { return real(c.preprocessing_time); }
    if (h == "local time (s)") { return real(c.local_time); }
    if (h == "contraction (s)") { return real(c.contraction_time); }
    if (h == "global (s)") { return real(c.global_time); }
    if (h == "local speedup") {
        return real(r.reference.count.local_time / c.local_time);
    }
    if (h == "total msgs") { return count(c.total_messages_sent); }
    if (h == "max msgs/PE") { return count(c.max_messages_sent); }
    if (h == "bottleneck volume (words)") { return count(c.max_words_sent); }
    if (h == "total volume (words)") { return count(c.total_words_sent); }
    if (h == "peak buffer (words)") { return count(c.max_peak_buffer_words); }
    if (h == "triangles") { return count(c.triangles); }
    if (h == "volume saved (%)") {
        const auto plain = r.reference.count.total_words_sent;
        return real(100.0 - percent(c.total_words_sent, plain));
    }
    KATRIC_ASSERT_MSG(h == "cut edges", "no figure column '" << h << "'");
    const auto& partition = r.engine.partition();
    std::uint64_t cut = 0;
    for (VertexId v = 0; v < r.graph.num_vertices(); ++v) {
        for (const VertexId u : r.graph.neighbors(v)) {
            cut += v < u && partition.rank_of(v) != partition.rank_of(u);
        }
    }
    return {cut};
}

/// One section: an Engine per point, a row per algorithm.
Sections sweep(const FigureSpec& spec, const Tier& tier, const Config& base,
               const std::string& name, const std::string& series,
               const std::vector<Point>& points, const std::vector<Column>& columns) {
    Sections sections(1, Section{series, series == name ? name : name + ", " + series});
    for (const auto& column : columns) { sections[0].columns.push_back(column.header); }
    const auto log_n = tier.log_n - (spec.weak ? family_shift(name) : 0);
    std::vector<Report> reference;
    CsrGraph g;
    for (const auto& point : points) {
        if (spec.weak || &point == &points.front()) {
            const auto n = (VertexId{1} << log_n) * (spec.weak ? point.p : 1);
            g = instance(name, static_cast<VertexId>(n), spec.seed);
        }
        Config config = base;
        config.num_ranks = static_cast<graph::Rank>(point.p);
        if (spec.tweak) { spec.tweak(config, g, point, tier); }
        const Engine engine(g, config);
        std::vector<Report> reports;
        for (const auto algorithm : spec.algorithms) {
            reports.push_back(engine.count(algorithm));
        }
        // Of each (direct, indirect) pair, drop the slower or the one out of memory.
        for (std::size_t i = 0; spec.variants && i + 1 < reports.size(); ++i) {
            const auto& direct = reports[i].count;
            const auto& indirect = reports[i + 1].count;
            const bool keep_direct =
                !direct.oom && (indirect.oom || direct.total_time <= indirect.total_time);
            reports.erase(reports.begin() + static_cast<std::ptrdiff_t>(i + keep_direct));
        }
        if (reference.empty()) { reference = reports; }
        for (std::size_t i = 0; i < reports.size(); ++i) {
            auto& row = sections[0].rows.emplace_back();
            for (const auto& column : columns) {
                row.push_back(cell(column, {g, engine, point, reports[i], reference[i]}));
            }
            if (!spec.variants) { continue; }
            const auto label = series + "/" + core::algorithm_name(reports[i].algorithm)
                               + "@p=" + std::to_string(point.p);
            auto& phases = sections.emplace_back(Section{
                label, label, {"phase", "seconds", "supersteps", "messages", "words"}});
            for (const auto& phase : reports[i].phases) {
                phases.rows.push_back({{phase.name}, {phase.seconds, 6},
                                       {std::uint64_t{phase.supersteps}},
                                       {phase.messages_sent}, {phase.words_sent}});
            }
        }
    }
    sections[0].title += spec.weak ? " (n/p=2^" + std::to_string(log_n) + ", m=16n)"
                                   : " (" + describe(g) + ")";
    if (tier.ps.size() == 1) {  // δ's automatic value is |E_i| ≈ 2m/p
        sections[0].title += ", p=" + std::to_string(tier.ps[0])
                             + ", 2m/p=" + std::to_string(2 * g.num_edges() / tier.ps[0]);
    }
    return sections;
}

// --- rows that are a figure's own ------------------------------------------

/// Fig. 8: cores = ranks × threads held fixed, then threads added to a fixed
/// rank count (the appendix's local-phase speedup "using the same number of
/// PEs").
Sections hybrid(const FigureSpec& spec, const Tier& tier, const Config& base) {
    std::vector<Point> fixed_cores;
    std::vector<Point> fixed_ranks;
    for (const auto cores : tier.ps) {
        for (const auto threads : tier.threads) {
            fixed_cores.push_back({cores / threads, threads});
        }
    }
    for (const auto threads : tier.threads) { fixed_ranks.push_back({8, threads}); }
    const auto& name = tier.instances.front();
    auto sections =
        sweep(spec, tier, base, name, "fixed-cores", fixed_cores, spec.columns);
    sections.push_back(sweep(spec, tier, base, name, "fixed-ranks", fixed_ranks,
                             {{"ranks"}, {"threads"}, {"local time (s)", 6},
                              {"local speedup", 2}, {"time (s)", 5}})[0]);
    return sections;
}

Sections datasets(const FigureSpec&, const Tier& tier, const Config&) {
    Section section{"proxies", "Table I proxies beside the paper's instances",
                    {"instance", "family", "n", "m", "wedges(orient)", "triangles",
                     "paper n", "paper m", "paper wedges", "paper triangles", "recipe"}};
    for (const auto& name : tier.instances) {
        const auto& proxy = gen::proxy_spec(name);
        const auto g = gen::build_proxy(name);
        const auto stats = graph::compute_stats(g);
        section.rows.push_back({{name}, {proxy.family}, {std::uint64_t{stats.n}, 1},
                                {std::uint64_t{stats.m}, 1}, {stats.oriented_wedges, 1},
                                {seq::count_edge_iterator(g).triangles, 1},
                                {proxy.paper_n, 1}, {proxy.paper_m, 1},
                                {proxy.paper_wedges, 1}, {proxy.paper_triangles, 1},
                                {proxy.generator}});
    }
    return {section};
}

/// Section IV-B: each PE posts one 8-word record to every destination of a
/// traffic pattern — all-to-one (a hotspot) or uniform — with no graph.
Sections indirection(const FigureSpec&, const Tier& tier, const Config& base) {
    Sections sections;
    for (const auto& pattern : tier.instances) {
        auto& section = sections.emplace_back(
            Section{pattern, "pattern: " + pattern,
                    {"p", "router", "time (s)", "max msgs recv/PE", "total words"}});
        for (const auto p : tier.ps) {
            const auto ranks = static_cast<net::Rank>(p);
            for (const bool indirect : {false, true}) {
                net::Simulator sim(ranks, base.network);
                std::unique_ptr<const net::Router> router;
                if (indirect) {
                    router = std::make_unique<net::GridRouter>(ranks);
                } else {
                    router = std::make_unique<net::DirectRouter>();
                }
                net::MessageQueue queue(std::move(router),
                                        std::vector<std::uint64_t>(ranks, 1 << 16), 1);
                const auto post = [&](net::RankHandle& self) {
                    const std::uint64_t record[8] = {self.rank(), 1, 2, 3, 4, 5, 6, 7};
                    for (net::Rank dest = 0; dest < ranks; ++dest) {
                        if (dest != self.rank() && (pattern == "uniform" || dest == 0)) {
                            queue.post(self, dest, record);
                        }
                    }
                };
                queue.run_phase(sim, "pattern", post, [](auto&, auto) {});
                std::uint64_t max_received = 0;
                std::uint64_t words = 0;
                for (const auto& metrics : sim.rank_metrics()) {
                    max_received = std::max(max_received, metrics.messages_received);
                    words += metrics.words_sent;
                }
                section.rows.push_back({{p}, {indirect ? "grid" : "direct"},
                                        {sim.time(), 6}, {max_received}, {words}});
            }
        }
    }
    return sections;
}

/// Section IV-D: Arifuzzaman-style cost functions for the 1-D partition, and
/// the one-time volume of moving to each from the uniform layout.
Sections loadbalance(const FigureSpec& spec, const Tier& tier, const Config& base) {
    const auto g = instance("RMAT", VertexId{1} << tier.log_n, spec.seed);
    Config config = base;
    const auto p = config.num_ranks = static_cast<graph::Rank>(tier.ps.front());
    const auto uniform = graph::Partition1D::uniform(g.num_vertices(), p);
    Section section{"RMAT", "RMAT (" + describe(g) + ", p=" + std::to_string(p) + ")",
                    {"partition", "time CETRIC (s)", "time DITRIC (s)",
                     "redistribution (words)", "redistribution / m (%)"}};
    const auto add = [&](const std::string& name, const graph::Partition1D& partition) {
        const Engine engine(g, config, partition);  // no Config strategy expresses it
        const auto words = graph::redistribution_volume(g, uniform, partition);
        section.rows.push_back({{name},
                                {engine.count(Algorithm::kCetric).count.total_time, 5},
                                {engine.count(Algorithm::kDitric).count.total_time, 5},
                                {words},
                                {percent(words, 2 * g.num_edges()), 1}});
    };
    add("uniform-vertices", uniform);
    add("balanced-edges", graph::Partition1D::balanced_by_edges(g, p));
    for (const auto cost :
         {graph::CostFunction::kDegreeSq, graph::CostFunction::kOrientedWedges}) {
        add(graph::cost_function_name(cost), graph::partition_by_cost(g, p, cost));
    }
    return {section};
}

/// Section IV-E: the AMQ target-FPR sweep against the exact count, beside
/// the DOULION and colorful sampling baselines (exact counter as a black box).
Sections approx(const FigureSpec& spec, const Tier& tier, const Config& base) {
    const auto g = instance("RGG2D", VertexId{1} << tier.log_n, spec.seed);
    Config config = base;
    config.algorithm = Algorithm::kCetric;
    config.num_ranks = static_cast<graph::Rank>(tier.ps.front());
    const Engine engine(g, config);  // the exact run and the whole FPR sweep
    const auto exact = engine.count().count;
    const auto error = [&](double estimate) {
        const auto truth = static_cast<double>(exact.triangles);
        return 100.0 * std::abs(estimate - truth) / truth;
    };
    Section amq{"CETRIC-AMQ", "CETRIC-AMQ on RGG2D (" + describe(g) + ")",
                {"method", "target FPR", "estimate", "rel err (%)",
                 "total volume (words)", "volume vs exact (%)"}};
    amq.rows.push_back({{"exact"}, {0.0, 3}, {exact.triangles}, {0.0, 3},
                        {exact.total_words_sent}, {100.0, 1}});
    for (const double fpr : tier.sweep) {
        core::AmqOptions options = config.amq;
        options.target_fpr = fpr;
        const auto run = engine.approx_count(options);
        const auto words = run.count.total_words_sent;
        amq.rows.push_back({{"amq"}, {fpr, 3}, {run.estimated_triangles, 1},
                            {error(run.estimated_triangles), 3}, {words},
                            {percent(words, exact.total_words_sent), 1}});
    }
    Section sampling{
        "sampling", "sampling baselines on the same instance",
        {"method", "parameter", "estimate", "rel err (%)", "sparsified m / m (%)"}};
    const auto sample = [&](const char* method, Cell parameter, const CsrGraph& sparse,
                            double scale) {
        const auto found = Engine(sparse, config).count().count.triangles;
        const auto estimate = static_cast<double>(found) * scale;
        sampling.rows.push_back({{method}, std::move(parameter), {estimate, 1},
                                 {error(estimate), 2},
                                 {percent(sparse.num_edges(), g.num_edges()), 1}});
    };
    for (const double keep : {0.5, 0.25, 0.1}) {
        sample("DOULION", {keep, 2}, core::sparsify_doulion(g, keep, 99),
               core::doulion_scale(keep));
    }
    for (const std::uint64_t colors : {2u, 4u, 8u}) {
        sample("colorful", {colors}, core::sparsify_colorful(g, colors, 99),
               core::colorful_scale(colors));
    }
    return {amq, sampling};
}

/// The streaming subsystem: a churn of n/2 events on RGG2D, in batches of
/// each swept size. Per batch, the session's incremental count and Δ/LCC
/// maintenance beside a full LCC recount of the materialized graph on a
/// fresh Engine (the build included: that is what the session saves).
Sections streaming(const FigureSpec& spec, const Tier& tier, const Config& base) {
    const VertexId n = VertexId{1} << tier.log_n;
    const auto g = instance("RGG2D", n, spec.seed);
    Config config = base;
    config.algorithm = Algorithm::kCetric;
    config.num_ranks = static_cast<graph::Rank>(tier.ps.front());
    config.maintain_lcc = true;
    const auto churn = stream::make_churn_stream(g, n / 2, 0.4, 99);
    Sections sections;
    for (const double size : tier.sweep) {
        const auto batch_size = static_cast<std::size_t>(size);
        const auto label = "batch=" + std::to_string(batch_size);
        auto& section = sections.emplace_back(Section{
            label,
            "RGG2D (" + describe(g) + ", p=" + std::to_string(config.num_ranks) + "), "
                + std::to_string(n / 2) + " events, " + label,
            {"batch", "net ins", "net del", "triangles", "count time (s)",
             "flush time (s)", "recount time (s)", "words", "recount words",
             "matches recount"}});
        const Engine engine(g, config);
        auto session = engine.open_stream();
        for (const auto& batch : churn.batches_of(batch_size)) {
            const auto stats = session.ingest(batch);
            const auto current = session.materialize_global();
            const auto full = Engine(current, config).lcc();
            const bool matches = !full.count.oom
                                 && full.count.triangles == stats.triangles
                                 && full.delta == session.delta()
                                 && full.lcc == session.lcc();
            section.rows.push_back(
                {{std::uint64_t{stats.batch_index}}, {std::uint64_t{stats.net_inserts}},
                 {std::uint64_t{stats.net_deletes}}, {stats.triangles},
                 {stats.seconds, 6}, {stats.lcc_seconds, 6}, {full.count.total_time, 6},
                 {stats.words_sent}, {full.count.total_words_sent},
                 {matches ? "yes" : "no"}});
        }
    }
    return sections;
}

// --- claims ----------------------------------------------------------------

/// The section labelled `series`, or the first one for "".
const Section& find(const Sections& sections, const std::string& series) {
    static const Section kNone;
    for (const auto& s : sections) {
        if (series.empty() || s.series == series) { return s; }
    }
    return kNone;
}

const Cell& at(const Section& s, const Row& row, const std::string& column) {
    const auto i = std::find(s.columns.begin(), s.columns.end(), column);
    return row.at(static_cast<std::size_t>(i - s.columns.begin()));
}

/// A numeric cell; NaN for a label such as "OOM".
double value(const Section& s, const Row& row, const std::string& column) {
    const auto& v = at(s, row, column).value;
    if (const auto* count = std::get_if<std::uint64_t>(&v)) {
        return static_cast<double>(*count);
    }
    return std::holds_alternative<double>(v) ? std::get<double>(v) : std::nan("");
}

/// Whether `op(a's column, b's column)` at every core count ≥ min_p of
/// `series` (only the largest when min_p < 0), and at one at least. An
/// algorithm's row at p is the first whose name starts with it: DITRIC's own
/// row, or in Fig. 7 the variant chosen for it (DITRIC2).
template <typename Op>
bool compare(const Sections& sections, const std::string& series, double min_p,
             const std::string& column, const std::string& a, Op op,
             const std::string& b) {
    const auto& s = find(sections, series);
    const auto of = [&](const std::string& algo, double p) {
        for (const auto& row : s.rows) {
            if (value(s, row, "cores") == p
                && render(at(s, row, "algo")).starts_with(algo)) {
                return value(s, row, column);
            }
        }
        return std::nan("");
    };
    double largest = 0.0;
    for (const auto& row : s.rows) {
        largest = std::max(largest, value(s, row, "cores"));
    }
    bool checked = false;
    for (const auto& row : s.rows) {
        const double p = value(s, row, "cores");
        if (p < (min_p < 0 ? largest : min_p)) { continue; }
        if (!op(of(a, p), of(b, p))) { return false; }
        checked = true;
    }
    return checked;
}

/// The largest ratio a / b of `column` over the core counts compare()
/// checks; NaN when a row is missing or none is checked.
double max_ratio(const Sections& sections, const std::string& series, double min_p,
                 const std::string& column, const std::string& a, const std::string& b) {
    double largest = 0.0;
    const auto track = [&](double x, double y) {
        largest = std::max(largest, x / y);
        return !std::isnan(x / y);
    };
    return compare(sections, series, min_p, column, a, track, b) ? largest : std::nan("");
}

/// Fig. 7's measured figure: CETRIC's global phase over DITRIC's on
/// webbase-2001, the largest over p >= 32.
double webbase_global_ratio(const Sections& sections) {
    return max_ratio(sections, "webbase-2001", 32, "global (s)", "CETRIC", "DITRIC");
}

/// Whether `column` never moves against `sign` down each run of rows with
/// equal `group` cells, and does move with it over each run.
bool trend(const Sections& sections, const std::string& series,
           const std::string& column, double sign, const std::string& group = "") {
    const auto& s = find(sections, series);
    const auto v = [&](std::size_t i, const std::string& c) {
        return value(s, s.rows[i], c);
    };
    for (std::size_t begin = 0, end = 0; begin < s.rows.size(); begin = end) {
        for (end = begin + 1; end < s.rows.size()
                              && (group.empty() || v(end, group) == v(begin, group));
             ++end) {
            if (sign * (v(end, column) - v(end - 1, column)) < 0) { return false; }
        }
        if (!(sign * (v(end - 1, column) - v(begin, column)) > 0)) { return false; }
    }
    return !s.rows.empty();
}

/// Whether `holds(section, row)` for every row, and there is one at least.
template <typename Pred>
bool every_row(const Sections& sections, Pred holds) {
    bool checked = false;
    for (const auto& s : sections) {
        for (const auto& row : s.rows) {
            if (!holds(s, row)) { return false; }
            checked = true;
        }
    }
    return checked;
}

/// Fixed memory per core, as on SuperMUC-NG: `factor` times the per-PE share
/// of the input at `p` PEs.
void memory_budget(Config& config, const CsrGraph& g, std::uint64_t factor,
                   std::uint64_t p) {
    config.network.memory_limit_words =
        factor * (2 * g.num_edges() + g.num_vertices()) / p;
}

}  // namespace

const std::vector<FigureSpec>& figure_specs() {
    using A = Algorithm;
    using S = const Sections&;
    const std::vector<A> six = {A::kDitric,  A::kDitric2,      A::kCetric,
                                A::kCetric2, A::kHavoqgtStyle, A::kTricStyle};
    const std::vector<Column> scaling = {{"algo"},        {"cores"},
                                         {"n"},           {"time (s)", -3},
                                         {"max msgs/PE"}, {"bottleneck volume (words)"},
                                         {"triangles"}};
    std::vector<std::string> proxies;
    for (const auto& proxy : gen::proxy_registry()) { proxies.push_back(proxy.name); }
    const std::vector<std::string> families = {"RGG2D", "RHG", "GNM", "RMAT"};
    const std::vector<std::string> orders = {"RGG2D", "RGG2D/shuffled", "RGG2D/bfs"};
    static const std::vector<FigureSpec> specs = {
        {.name = "fig2", .title = "Fig. 2: DITRIC with and without message buffering",
         .full = {.instances = {"friendster"}, .ps = {2, 4, 8, 16, 32, 64, 128}},
         .smoke = {.instances = {"live-journal"}, .ps = {2, 16}},
         .algorithms = {A::kDitric, A::kEdgeIteratorUnbuffered},
         .columns = {{"cores"}, {"algo"}, {"time (s)", 4}, {"total msgs"}},
         .claims = {{"buffered DITRIC beats unbuffered on time and messages at every p",
                     [](S s) {
                         const auto* unbuffered = "EdgeIterator-unbuffered";
                         const auto fewer = [&](const char* column) {
                             return compare(s, "", 1, column, "DITRIC", std::less<>(),
                                            unbuffered);
                         };
                         return fewer("time (s)") && fewer("total msgs");
                     }}}},
        {.name = "fig5", .title = "Fig. 5: weak scaling",
         .full = {.instances = families, .log_n = 10, .ps = {1, 2, 4, 8, 16, 32, 64}},
         .smoke = {.instances = families, .log_n = 6, .ps = {2, 64}}, .seed = 42,
         .weak = true, .algorithms = six, .columns = scaling,
         .tweak = [](Config& c, const CsrGraph& g, const Point& point,
                     const Tier&) { memory_budget(c, g, 48, point.p); },
         .claims = {{"CETRIC's bottleneck volume < DITRIC's on RGG2D at every p >= 2",
                     [](S s) {
                         return compare(s, "RGG2D", 2, "bottleneck volume (words)",
                                        "CETRIC", std::less<>(), "DITRIC");
                     }},
                    {"GNM: contraction does not pay (CETRIC slower than DITRIC, p >= 2)",
                     [](S s) {
                         return compare(s, "GNM", 2, "time (s)", "CETRIC",
                                        std::greater<>(), "DITRIC");
                     }},
                    {"DITRIC2 cuts DITRIC's max msgs/PE at the largest p on GNM and RMAT",
                     [](S s) {
                         return compare(s, "GNM", -1, "max msgs/PE", "DITRIC2",
                                        std::less<>(), "DITRIC")
                                && compare(s, "RMAT", -1, "max msgs/PE", "DITRIC2",
                                           std::less<>(), "DITRIC");
                     }},
                    {"TriC-style runs out of memory (0 triangles) on RMAT at largest p",
                     [](S s) {
                         return compare(s, "RMAT", -1, "triangles", "TriC-style",
                                        std::less<>(), "DITRIC");
                     }}}},
        {.name = "fig6", .title = "Fig. 6: strong scaling on the real-world proxies",
         .full = {.instances = proxies, .ps = {4, 8, 16, 32, 64}},
         .smoke = {.instances = {"europe", "usa"}, .ps = {4, 16}}, .algorithms = six,
         .columns = scaling,
         .tweak = [](Config& c, const CsrGraph& g, const Point&, const Tier& tier) {
             // The budget fits the largest p: smaller p hold more per PE.
             memory_budget(c, g, 52, *std::max_element(tier.ps.begin(), tier.ps.end()));
         }},
        {.name = "fig7", .title = "Fig. 7: phase breakdown, best DITRIC vs best CETRIC",
         .full = {.instances = {"friendster", "webbase-2001", "live-journal"},
                  .ps = {8, 16, 32, 64}},
         .smoke = {.instances = {"webbase-2001"}, .ps = {8, 32}}, .variants = true,
         .algorithms = {A::kDitric, A::kDitric2, A::kCetric, A::kCetric2},
         .columns = {{"cores"}, {"algo"}, {"preprocessing (s)", 5}, {"local time (s)", 5},
                     {"contraction (s)", 5}, {"global (s)", 5}, {"time (s)", 5}},
         .claims = {{"on webbase-2001 CETRIC's global phase is at most about half (0.6x) "
                     "of DITRIC's at p >= 32",
                     [](S s) { return webbase_global_ratio(s) <= 0.6; },
                     [](S s) {
                         std::ostringstream out;
                         out << "measured " << std::fixed << std::setprecision(3)
                             << webbase_global_ratio(s) << "x, bound 0.6x";
                         return out.str();
                     }}}},
        {.name = "fig8", .title = "Fig. 8: hybrid DITRIC2, ranks x threads",
         .full = {.instances = {"orkut"}, .ps = {48, 96},
                  .threads = {1, 3, 6, 12, 24, 48}},
         .smoke = {.instances = {"europe"}, .ps = {12}, .threads = {1, 3, 12}},
         .algorithms = {A::kDitric2},
         .columns = {{"cores"}, {"threads"}, {"ranks"}, {"local time (s)", 5},
                     {"time (s)", 5}, {"total volume (words)"}},
         .tweak = [](Config& c, const CsrGraph&, const Point& point, const Tier&) {
             c.options.threads = static_cast<int>(point.threads);
         },
         .rows = hybrid,
         .claims = {{"at fixed cores the communication volume falls as threads rise",
                     [](S s) {
                         return trend(s, "fixed-cores", "total volume (words)", -1,
                                      "cores");
                     }},
                    {"at fixed ranks the local phase gets faster as threads are added",
                     [](S s) { return trend(s, "fixed-ranks", "local time (s)", -1); }}}},
        {.name = "table1", .title = "Table I: instances", .full = {.instances = proxies},
         .smoke = {.instances = {"europe", "usa"}}, .rows = datasets},
        {.name = "threshold", .title = "Ablation (Section IV-A): buffer threshold delta",
         .full = {.instances = {"RGG2D"}, .log_n = 13, .ps = {16},
                  .sweep = {16, 64, 256, 1024, 4096, 16384, 65536, 262144}},
         .smoke = {.instances = {"RGG2D"}, .log_n = 10, .ps = {16},
                   .sweep = {16, 256, 4096}},
         .seed = 13, .algorithms = {A::kDitric},
         .columns = {{"delta (words)"}, {"time (s)", 5}, {"total msgs"}, {"max msgs/PE"},
                     {"peak buffer (words)"}},
         .tweak = [](Config& c, const CsrGraph&, const Point& point, const Tier&) {
             c.options.buffer_threshold_words = static_cast<std::uint64_t>(point.x);
         },
         .claims = {{"as delta grows, msgs do not rise and peak buffers do not fall",
                     [](S s) {
                         return trend(s, "", "total msgs", -1)
                                && trend(s, "", "peak buffer (words)", 1);
                     }}}},
        {.name = "compression",
         .title = "Ablation: delta-varint neighborhood compression",
         .full = {.instances = {"RGG2D", "RGG2D/shuffled"}, .log_n = 13, .ps = {16},
                  .sweep = {0, 1}},
         .smoke = {.instances = {"RGG2D", "RGG2D/shuffled"}, .log_n = 10, .ps = {16},
                   .sweep = {0, 1}},
         .seed = 3, .algorithms = {A::kDitric, A::kCetric},
         .columns = {{"algo"}, {"compressed"}, {"time (s)", 5}, {"total volume (words)"},
                     {"volume saved (%)", 1}},
         .tweak = [](Config& c, const CsrGraph&, const Point& point,
                     const Tier&) { c.options.compress_neighborhoods = point.x != 0; }},
        {.name = "locality",
         .title = "Ablation (Section IV-C): vertex-order locality vs contraction",
         .full = {.instances = orders, .log_n = 13, .ps = {16}},
         .smoke = {.instances = orders, .log_n = 10, .ps = {16}}, .seed = 3,
         .algorithms = {A::kDitric, A::kCetric},
         .columns = {{"algo"}, {"time (s)", 5}, {"total volume (words)"},
                     {"bottleneck volume (words)"}, {"cut edges"}}},
        {.name = "indirection",
         .title = "Ablation (Section IV-B): grid indirection on traffic patterns",
         .full = {.instances = {"all-to-one", "uniform"}, .ps = {16, 64, 256, 1024}},
         .smoke = {.instances = {"all-to-one", "uniform"}, .ps = {16, 64}},
         .rows = indirection},
        {.name = "loadbalance",
         .title = "Ablation (Section IV-D): degree-based load balancing",
         .full = {.log_n = 12, .ps = {16}}, .smoke = {.log_n = 9, .ps = {16}}, .seed = 5,
         .rows = loadbalance},
        {.name = "approx",
         .title = "Approximate counting (Section IV-E): CETRIC-AMQ vs sampling",
         .full = {.log_n = 12, .ps = {16}, .sweep = {0.2, 0.1, 0.05, 0.02, 0.01, 0.001}},
         .smoke = {.log_n = 9, .ps = {16}, .sweep = {0.1, 0.01}}, .seed = 7,
         .rows = approx},
        {.name = "stream",
         .title = "Streaming: incremental count and LCC maintenance vs full recount",
         .full = {.log_n = 12, .ps = {16}, .sweep = {256}},
         .smoke = {.log_n = 9, .ps = {4}, .sweep = {64}}, .seed = 17, .rows = streaming,
         .claims = {{"incremental count, Delta and LCC equal a full recount after every "
                     "batch",
                     [](S s) {
                         return every_row(s, [](const Section& section, const Row& row) {
                             return render(at(section, row, "matches recount")) == "yes";
                         });
                     }},
                    {"incremental sim time (count + Delta flush) < recount's in every "
                     "batch",
                     [](S s) {
                         return every_row(s, [](const Section& section, const Row& row) {
                             const auto t = [&](const char* column) {
                                 return value(section, row, column);
                             };
                             return t("count time (s)") + t("flush time (s)")
                                    < t("recount time (s)");
                         });
                     }}}},
    };
    return specs;
}

std::uint64_t family_shift(const std::string& instance) {
    return instance == "GNM" || instance == "RMAT" ? 2 : 0;
}

Sections run_figure(const FigureSpec& spec, const Tier& tier, const Config& config) {
    if (spec.rows) { return spec.rows(spec, tier, config); }
    std::vector<Point> points;
    for (const auto p : tier.ps) {
        for (const double x : tier.sweep.empty() ? std::vector<double>{0} : tier.sweep) {
            points.push_back({p, 1, x});
        }
    }
    Sections sections;
    for (const auto& name : tier.instances) {
        const auto part = sweep(spec, tier, config, name, name, points, spec.columns);
        sections.insert(sections.end(), part.begin(), part.end());
    }
    return sections;
}

std::string column_key(const std::string& header) {
    std::string key;
    for (const unsigned char c : header) {
        if (std::isalnum(c)) {
            key += static_cast<char>(std::tolower(c));
        } else if (!key.empty() && key.back() != '_') {
            key += '_';
        }
    }
    if (key.ends_with('_')) { key.pop_back(); }
    return key;
}

void emit(const FigureSpec& spec, const Config& config, const Sections& sections,
          std::ostream& out, JsonWriter& json) {
    print_header(spec.title, config, out);
    for (const auto& section : sections) {
        Table table(section.columns);
        for (const auto& row : section.rows) {
            table.row();
            json.begin_row().field("figure", spec.name).field("series", section.series);
            for (std::size_t c = 0; c < row.size(); ++c) {
                table.cell(render(row[c]));
                const auto key = column_key(section.columns[c]);
                std::visit([&](const auto& value) { json.field(key, value); },
                           row[c].value);
            }
        }
        out << "--- " << section.title << " ---\n";
        table.print(out);
        out << '\n';
    }
    for (const auto& claim : spec.claims) {
        out << "claim (paper): " << claim.text
            << (claim.holds(sections) ? " [holds]" : " [DOES NOT HOLD]");
        if (claim.margin) { out << " (" << claim.margin(sections) << ')'; }
        out << '\n';
    }
    out << '\n';
}

int figures_main(int argc, const char* const* argv, std::ostream& out,
                 std::ostream& err) {
    const auto& specs = figure_specs();
    std::string names = "all";
    for (const auto& spec : specs) { names += ", " + spec.name; }
    CliParser cli("bench_figures",
                  "The paper's figures, Table I and the Section IV ablations, simulated");
    cli.option("figure", "all", "what to run: " + names);
    cli.flag("smoke", "run the smoke tier, the sizes the figure golden pins");
    add_engine_options(cli);
    if (!cli.parse(argc, argv)) { return 0; }
    const auto figure = cli.get_string("figure");
    const auto chosen = [&](const FigureSpec& spec) {
        return figure == "all" || figure == spec.name;
    };
    if (std::none_of(specs.begin(), specs.end(), chosen)) {
        err << "bench_figures: unknown --figure '" << figure << "'; valid: " << names
            << '\n';
        return 2;
    }
    const auto config = engine_config(cli);
    JsonWriter json;
    for (const auto& spec : specs) {
        if (!chosen(spec)) { continue; }
        const auto& tier = cli.get_flag("smoke") ? spec.smoke : spec.full;
        emit(spec, config, run_figure(spec, tier, config), out, json);
    }
    json.write(cli.get_string("json"));
    return 0;
}

}  // namespace katric::bench
