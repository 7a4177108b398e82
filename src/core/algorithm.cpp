#include "core/algorithm.hpp"

#include <algorithm>

#include "net/collectives.hpp"
#include "net/metrics.hpp"
#include "util/assert.hpp"

namespace katric::core {

std::string algorithm_name(Algorithm algorithm) {
    switch (algorithm) {
        case Algorithm::kEdgeIteratorUnbuffered: return "EdgeIterator-unbuffered";
        case Algorithm::kDitric: return "DITRIC";
        case Algorithm::kDitric2: return "DITRIC2";
        case Algorithm::kCetric: return "CETRIC";
        case Algorithm::kCetric2: return "CETRIC2";
        case Algorithm::kTricStyle: return "TriC-style";
        case Algorithm::kHavoqgtStyle: return "HavoqGT-style";
    }
    return "unknown";
}

std::optional<Algorithm> parse_algorithm(const std::string& name) {
    for (const auto algorithm : all_algorithms()) {
        if (algorithm_name(algorithm) == name) { return algorithm; }
    }
    return std::nullopt;
}

std::string run_error_message(RunError error, Algorithm algorithm) {
    switch (error) {
        case RunError::kNone: return "";
        case RunError::kSinkUnsupported:
            return algorithm_name(algorithm)
                   + " cannot drive a triangle sink (supported by the edge-iterator "
                     "family and CETRIC/CETRIC2)";
        case RunError::kInvalidInput:
            return "input failed validation; nothing was mutated";
    }
    return "unknown error";
}

const std::vector<Algorithm>& all_algorithms() {
    static const std::vector<Algorithm> algorithms = {
        Algorithm::kDitric,    Algorithm::kDitric2,   Algorithm::kCetric,
        Algorithm::kCetric2,   Algorithm::kTricStyle, Algorithm::kHavoqgtStyle,
        Algorithm::kEdgeIteratorUnbuffered,
    };
    return algorithms;
}

graph::Degree resolve_hub_threshold(const AlgorithmOptions& options,
                                    const DistGraph& view) {
    if (options.hub_threshold != 0) { return options.hub_threshold; }
    // Mean *oriented* row length: the stored half-edges split across the
    // out-rows of local and ghost vertices, each keeping roughly half.
    const std::uint64_t rows = view.num_local() + view.num_ghosts();
    const std::uint64_t avg = rows == 0 ? 0 : view.num_local_half_edges() / (2 * rows);
    return seq::auto_hub_threshold(avg);
}

void run_preprocessing(net::Simulator& sim, std::vector<DistGraph>& views,
                       const AlgorithmOptions& options, PreprocessCosts* record) {
    const Rank p = sim.num_ranks();
    KATRIC_ASSERT(views.size() == p);
    if (record != nullptr) {
        *record = PreprocessCosts{};
        record->assembly_ops.assign(p, 0);
        record->payload_words.assign(p, std::vector<std::uint64_t>(p, 0));
        record->apply_ops.assign(p, 0);
        record->hub_build_ops.assign(p, 0);
    }

    // Assemble the ghost-degree push: for every local interface vertex v,
    // every rank owning a ghost neighbor of v receives the pair (v, deg v).
    // Neighborhoods are ID-sorted, so owner ranks appear nondecreasing and
    // a last-rank check deduplicates (the surrogate trick).
    std::vector<std::vector<net::WordVec>> sends(p, std::vector<net::WordVec>(p));
    sim.run_phase("preprocessing:assemble", [&](net::RankHandle& self) {
        const Rank r = self.rank();
        DistGraph& view = views[r];
        std::uint64_t assembly_ops = 0;
        for (VertexId v = view.first_local(); v < view.first_local() + view.num_local();
             ++v) {
            Rank last = r;
            for (VertexId u : view.neighbors(v)) {
                ++assembly_ops;
                if (view.is_local(u)) { continue; }
                const Rank owner = view.partition().rank_of(u);
                if (owner == last) { continue; }
                last = owner;
                sends[r][owner].push_back(v);
                sends[r][owner].push_back(view.degree(v));
            }
        }
        if (record != nullptr) { record->assembly_ops[r] = assembly_ops; }
        self.charge_ops(assembly_ops);
    }, {});

    if (record != nullptr) {
        for (Rank src = 0; src < p; ++src) {
            for (Rank dest = 0; dest < p; ++dest) {
                record->payload_words[src][dest] = sends[src][dest].size();
            }
        }
    }

    // The paper uses a simple dense all-to-all for the degree exchange
    // (sparse exchanges can lose under skewed degree distributions).
    auto received = net::all_to_all(sim, std::move(sends), /*sparse=*/false,
                                    "preprocessing:exchange");

    sim.run_phase("preprocessing:apply", [&](net::RankHandle& self) {
        const Rank r = self.rank();
        DistGraph& view = views[r];
        std::uint64_t ops = 0;
        // Owners push in ascending ID order and ranks own ascending ID
        // ranges, so the payloads, concatenated by source rank, name the
        // ghosts in ghost_ids() order: a cursor walks them, no lookup.
        const auto& ghosts = view.ghost_ids();
        std::size_t next = 0;
        for (Rank src = 0; src < p; ++src) {
            const auto& payload = received[r][src];
            KATRIC_ASSERT(payload.size() % 2 == 0);
            for (std::size_t i = 0; i < payload.size(); i += 2) {
                KATRIC_ASSERT_MSG(next < ghosts.size() && ghosts[next] == payload[i],
                                  "degree message for unknown ghost " << payload[i]);
                view.set_ghost_degree(next++, payload[i + 1]);
                ++ops;
            }
        }
        KATRIC_ASSERT_MSG(next == ghosts.size(),
                          "no degree message for ghost " << ghosts[next]);
        view.mark_ghost_degrees_ready();
        // Orientation + ghost rewiring + contraction are three linear scans
        // over the local adjacency (Section IV-D: "requires no additional
        // memory, simply rewiring incoming cut edges").
        view.build_oriented();
        ops += 3 * view.num_local_half_edges();
        if (record != nullptr) { record->apply_ops[r] = ops; }
        if (uses_hub_bitmaps(options.intersect)) {
            // Materializing the hub bitmaps is preprocessing work too —
            // selection scan plus one bit-set per indexed element.
            seq::HubBitmapIndex::Config config;
            config.degree_threshold = resolve_hub_threshold(options, view);
            config.universe = view.partition().num_vertices();
            const auto hub_ops = view.build_hub_bitmaps(config);
            if (record != nullptr) { record->hub_build_ops[r] = hub_ops; }
            ops += hub_ops;
        }
        self.charge_ops(ops);
    }, {});
    if (record != nullptr) { record->recorded = true; }
}

void charge_preprocessing(net::Simulator& sim, const PreprocessCosts& costs,
                          bool include_hub_build) {
    const Rank p = sim.num_ranks();
    KATRIC_ASSERT_MSG(costs.recorded, "charge_preprocessing needs a recorded ledger");
    KATRIC_ASSERT(costs.assembly_ops.size() == p && costs.apply_ops.size() == p
                  && costs.payload_words.size() == p);

    sim.run_phase("preprocessing:assemble", [&](net::RankHandle& self) {
        self.charge_ops(costs.assembly_ops[self.rank()]);
    }, {});

    // Size-only replay of the recorded exchange: the machine model charges
    // by length only, so this is metric-identical to the original dense
    // all-to-all — at O(p²) host cost instead of O(exchange volume), which
    // is what keeps charge_reused_preprocessing cheap enough to run per
    // query under concurrent serving.
    net::charge_all_to_all(sim, costs.payload_words, /*sparse=*/false,
                           "preprocessing:exchange");

    sim.run_phase("preprocessing:apply", [&](net::RankHandle& self) {
        const Rank r = self.rank();
        std::uint64_t ops = costs.apply_ops[r];
        if (include_hub_build) { ops += costs.hub_build_ops[r]; }
        self.charge_ops(ops);
    }, {});
}

std::optional<AlgorithmOptions> preprocess_options(Algorithm algorithm,
                                                  const AlgorithmOptions& options) {
    switch (algorithm) {
        case Algorithm::kTricStyle:
            // TriC-style keeps the undirected adjacency and static buffers —
            // no orientation pass, no ghost-degree exchange.
            return std::nullopt;
        case Algorithm::kHavoqgtStyle: {
            // The wedge-query baseline orients but never intersects rows, so
            // its preprocessing must not build (or charge for) hub bitmaps.
            AlgorithmOptions prep = options;
            prep.intersect = seq::IntersectKind::kMerge;
            return prep;
        }
        default:
            return options;
    }
}

void apply_preprocessing(net::Simulator& sim, const std::vector<DistGraph>& views,
                         const AlgorithmOptions& options, const Preprocess& preprocess) {
    for (const auto& view : views) {
        KATRIC_ASSERT_MSG(view.ghost_degrees_ready() && view.oriented_built(),
                          "preprocessing replay/skip requires prebuilt views");
        KATRIC_ASSERT_MSG(
            !uses_hub_bitmaps(options.intersect) || view.hub_index() != nullptr,
            "replay/skip with bitmap kernels requires a prebuilt hub index");
    }
    if (preprocess.mode == Preprocess::Mode::kCharge) {
        KATRIC_ASSERT(preprocess.costs != nullptr);
        charge_preprocessing(sim, *preprocess.costs, uses_hub_bitmaps(options.intersect));
    }
}

std::uint64_t auto_threshold(std::uint64_t local_half_edges,
                             const AlgorithmOptions& options) {
    if (options.buffer_threshold_words != 0) { return options.buffer_threshold_words; }
    return std::max<std::uint64_t>(1024, local_half_edges);
}

void fill_metrics(const net::Simulator& sim, CountResult& result) {
    const auto ranks = sim.rank_metrics();
    result.max_messages_sent = net::max_messages_sent(ranks);
    result.max_words_sent = net::max_words_sent(ranks);
    result.total_messages_sent = net::total_messages_sent(ranks);
    result.total_words_sent = net::total_words_sent(ranks);
    result.max_peak_buffer_words = net::max_peak_buffered(ranks);
    result.total_time = sim.time();
    // Prefix match: preprocessing runs as named supersteps
    // ("preprocessing:assemble"/":exchange"/":apply") since the obs layer
    // landed, and their time folds back into one reported figure.
    result.preprocessing_time = net::phase_time_matching(sim.phases(), "preprocessing*");
    result.local_time = net::phase_time(sim.phases(), "local");
    result.contraction_time = net::phase_time(sim.phases(), "contraction");
    result.global_time = net::phase_time(sim.phases(), "global");
    result.reduce_time = net::phase_time(sim.phases(), "reduce");
}

}  // namespace katric::core
