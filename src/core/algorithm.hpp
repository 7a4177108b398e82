#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "graph/distributed_graph.hpp"
#include "net/indirection.hpp"
#include "net/message_queue.hpp"
#include "net/simulator.hpp"
#include "seq/adaptive_intersect.hpp"
#include "seq/intersection.hpp"

namespace katric::core {

using graph::DistGraph;
using graph::Rank;
using graph::VertexId;

/// The algorithm zoo of the paper's evaluation (Section V-B).
enum class Algorithm {
    kEdgeIteratorUnbuffered,  ///< Alg. 2 with direct per-edge sends (Fig. 2 "no buffering")
    kDitric,                  ///< dynamic aggregation + surrogate dedup (Section IV-A)
    kDitric2,                 ///< DITRIC + grid-based indirect delivery (Section IV-B)
    kCetric,                  ///< two-phase contraction algorithm (Section IV-C, Alg. 3)
    kCetric2,                 ///< CETRIC + indirect delivery
    kTricStyle,               ///< TriC-like baseline: no orientation, static single-shot buffers
    kHavoqgtStyle,            ///< HavoqGT-like baseline: vertex-centric wedge queries
};

[[nodiscard]] std::string algorithm_name(Algorithm algorithm);
[[nodiscard]] const std::vector<Algorithm>& all_algorithms();
/// Inverse of algorithm_name; empty when no algorithm has that name.
[[nodiscard]] std::optional<Algorithm> parse_algorithm(const std::string& name);

/// True when the algorithm can report every found triangle through a
/// TriangleSink (the edge-iterator family and CETRIC/CETRIC2 — the basis of
/// LCC and enumeration). The baselines count without attributing finds.
[[nodiscard]] constexpr bool algorithm_supports_sink(Algorithm algorithm) noexcept {
    return algorithm != Algorithm::kTricStyle && algorithm != Algorithm::kHavoqgtStyle;
}

/// Typed run failure reported in CountResult::error instead of a crash —
/// the facade surfaces it in Report::error.
enum class RunError : std::uint8_t {
    kNone = 0,
    /// A TriangleSink was requested with an algorithm that cannot drive one
    /// (see algorithm_supports_sink).
    kSinkUnsupported,
    /// The input data failed validation before any work ran — an edge
    /// endpoint outside the declared vertex universe, a stream batch whose
    /// events are not time-ordered, or a similarly malformed payload. The
    /// rejected operation mutated nothing.
    kInvalidInput,
};

[[nodiscard]] std::string run_error_message(RunError error, Algorithm algorithm);

struct AlgorithmOptions {
    /// δ for the dynamically buffered queue, in words. 0 = automatic:
    /// max(1024, |E_i|) per PE, the paper's O(|E_i|) linear-memory setting.
    std::uint64_t buffer_threshold_words = 0;
    seq::IntersectKind intersect = seq::IntersectKind::kMerge;
    /// Degree threshold for the hub bitmap index (kAdaptive only). 0 =
    /// automatic: max(8, 4 × the rank's mean oriented row length),
    /// recomputed per rank from its local view — the graph_stats intuition
    /// that hubs are the far tail of the degree distribution.
    graph::Degree hub_threshold = 0;
    /// Hybrid mode: threads per MPI rank for the local phase (Section IV-D);
    /// 1 = plain MPI variant.
    int threads = 1;
    /// PEs per compute node, used by the HavoqGT-style baseline's two-level
    /// (node-aggregating) router. 1 disables node aggregation.
    Rank pes_per_node = 8;
    /// Delta–varint compression of the neighborhood lists shipped in the
    /// global phase (edge-iterator family and CETRIC). Cuts volume whenever
    /// the IDs have locality; costs ~1 op/element to encode and decode.
    bool compress_neighborhoods = false;
    /// Run the global phase with real distributed termination detection
    /// (Mattern four-counter over control messages) instead of the
    /// simulator's omniscient quiescence check. Costs extra α per report —
    /// the honesty tax a native MPI implementation pays. Honoured by every
    /// neighborhood-exchange algorithm (DITRIC/DITRIC2/CETRIC/CETRIC2 and
    /// the unbuffered edge iterator); the baselines and CETRIC-AMQ ignore it.
    bool detect_termination = false;
    /// Optional dispatch-mix sink threaded into every AdaptiveIntersect the
    /// run constructs (kernel chosen × operand-size bucket, hub hit/miss).
    /// Not a tuning knob and never serialized to flags: katric::Engine sets
    /// it on its per-query option copy when metrics are enabled; null keeps
    /// recording disabled.
    obs::KernelStats* kernel_stats = nullptr;

    friend bool operator==(const AlgorithmOptions&, const AlgorithmOptions&) = default;
};

/// Optional triangle observer: called once per found triangle with the
/// finding rank and the triangle's vertices. Basis of the LCC extension.
using TriangleSink = std::function<void(Rank finder, VertexId v, VertexId u, VertexId w)>;

/// Everything the paper reports per run: the count, simulated phase times,
/// and the exact communication metrics.
struct CountResult {
    std::uint64_t triangles = 0;
    bool oom = false;  ///< ran out of per-PE memory (TriC-style behaviour)
    /// kNone on success; a typed precondition failure otherwise (the run
    /// did not execute and every metric below is zero).
    RunError error = RunError::kNone;

    // Simulated seconds (graph loading/building excluded, preprocessing
    // included — the paper's timing convention).
    double total_time = 0.0;
    double preprocessing_time = 0.0;
    double local_time = 0.0;
    double contraction_time = 0.0;
    double global_time = 0.0;
    double reduce_time = 0.0;

    // Exact communication metrics (Fig. 5 rows 2–3).
    std::uint64_t max_messages_sent = 0;    ///< max over PEs
    std::uint64_t max_words_sent = 0;       ///< bottleneck communication volume
    std::uint64_t total_messages_sent = 0;
    std::uint64_t total_words_sent = 0;
    std::uint64_t max_peak_buffer_words = 0;

    // Phase-attributed counts (test observability: type 1+2 vs type 3).
    std::uint64_t local_phase_triangles = 0;
    std::uint64_t global_phase_triangles = 0;
};

// --- shared building blocks -------------------------------------------

/// Message tag used by the counting queues.
inline constexpr int kTagCount = 1;
inline constexpr int kTagWedge = 2;
inline constexpr int kTagDelta = 3;
/// Tag of the streaming subsystem's epoch-stamped queues (src/stream/).
inline constexpr int kTagStream = 4;
/// Tag of the streaming LCC Δ-flush queues (src/stream/incremental_lcc).
inline constexpr int kTagStreamLcc = 5;

/// Intersection that charges its measured kernel cost to the PE's clock.
/// Pass operand vertex IDs when known so the dispatcher can route hub rows
/// through their bitmaps; kInvalidVertex skips the hub lookup.
inline std::uint64_t charged_intersect(net::RankHandle& self,
                                       std::span<const VertexId> a,
                                       std::span<const VertexId> b,
                                       const seq::AdaptiveIntersect& isect,
                                       VertexId a_id = graph::kInvalidVertex,
                                       VertexId b_id = graph::kInvalidVertex) {
    const auto r = isect.count(a, b, a_id, b_id);
    self.charge_ops(r.ops);
    return r.count;
}

/// True when `kind` wants the per-rank hub bitmap index materialized during
/// preprocessing.
[[nodiscard]] constexpr bool uses_hub_bitmaps(seq::IntersectKind kind) noexcept {
    return kind == seq::IntersectKind::kAdaptive;
}

/// Effective hub-degree threshold for one rank's view (see
/// AlgorithmOptions::hub_threshold).
[[nodiscard]] graph::Degree resolve_hub_threshold(const AlgorithmOptions& options,
                                                  const DistGraph& view);

/// The recorded cost ledger of one preprocessing pass, split by phase so an
/// Engine can re-charge every later run without redoing the build. The
/// ledger is options-independent except for the hub-bitmap build, which is
/// kept separate: a replay includes it only when the replayed run's kernels
/// would have built the index.
struct PreprocessCosts {
    bool recorded = false;
    std::vector<std::uint64_t> assembly_ops;  ///< per rank: degree-push assembly
    /// Per-(src, dest) ghost-degree payload sizes in words — enough to replay
    /// the dense all-to-all with identical timing and message metrics.
    std::vector<std::vector<std::uint64_t>> payload_words;
    std::vector<std::uint64_t> apply_ops;      ///< per rank: degree apply + orientation scans
    std::vector<std::uint64_t> hub_build_ops;  ///< per rank: hub bitmap build (0 when absent)
};

/// How a counting run treats the preprocessing front half. The default
/// (kBuild) is the one-shot behaviour: build the distributed state on the
/// simulator and charge it. A katric::Engine, whose views its constructor
/// already preprocessed, passes kCharge (replay the recorded costs — metric
/// fidelity without the host-side work) or kSkip (charge nothing; op/time
/// telemetry omits the front half while the counts stay exact).
struct Preprocess {
    enum class Mode { kBuild, kCharge, kSkip };
    Mode mode = Mode::kBuild;
    /// kCharge: the ledger to replay (must be recorded).
    const PreprocessCosts* costs = nullptr;
    /// kBuild: optional out-ledger filled while building.
    PreprocessCosts* record = nullptr;
};

/// Runs the preprocessing of Section IV-D on the simulator: the dense
/// all-to-all ghost-degree exchange followed by building the degree-oriented
/// (and, for CETRIC, expanded/contracted) adjacency structures — plus, for
/// the bitmap-aware kernels, each rank's hub bitmap index — charging the
/// corresponding linear work. Runs as the supersteps
/// "preprocessing:assemble" / "preprocessing:exchange" /
/// "preprocessing:apply" (aggregate with the "preprocessing*" pattern).
/// When `record` is given, the per-phase costs are captured for later
/// replay.
void run_preprocessing(net::Simulator& sim, std::vector<DistGraph>& views,
                       const AlgorithmOptions& options,
                       PreprocessCosts* record = nullptr);

/// Charge-only replay of a recorded preprocessing pass: reproduces the
/// original's simulated time and communication metrics (same phases, same
/// message sizes, same ops) without touching the views. The hub-build ops
/// are included only when `include_hub_build` — mirroring that a fresh run
/// with non-bitmap kernels would not have built the index.
void charge_preprocessing(net::Simulator& sim, const PreprocessCosts& costs,
                          bool include_hub_build);

/// The preprocessing option set an algorithm's build pass uses: nullopt for
/// TriC-style (no preprocessing at all), a copy with kMerge kernels for the
/// HavoqGT-style baseline (orients, but never intersects rows — no hub
/// bitmaps), the caller's options otherwise.
[[nodiscard]] std::optional<AlgorithmOptions> preprocess_options(
    Algorithm algorithm, const AlgorithmOptions& options);

/// Runs a kBuild preprocessing pass up front (with the algorithm's effective
/// preprocess_options) and returns the policy the algorithm body should run
/// with — kSkip after a build, the input policy unchanged otherwise (incl.
/// for TriC-style, whose body ignores it). This is the only view-mutating
/// step of a counting run; hoisting it keeps the algorithm bodies on const
/// views, which is what makes concurrent queries over an Engine's shared
/// views provably read-only.
[[nodiscard]] Preprocess hoist_preprocess_build(net::Simulator& sim,
                                                std::vector<DistGraph>& views,
                                                Algorithm algorithm,
                                                const AlgorithmOptions& options,
                                                const Preprocess& preprocess);

/// Policy dispatch used by every algorithm body that owns a preprocessing
/// phase: replay the recorded charges (kCharge) or skip (kSkip) — both
/// require views that are already preprocessed (oriented, ghost degrees
/// ready, hub index present when the kernels want one). kBuild must be
/// hoisted with hoist_preprocess_build before the body runs; passing it
/// here throws.
void apply_preprocessing(net::Simulator& sim, const std::vector<DistGraph>& views,
                         const AlgorithmOptions& options, const Preprocess& preprocess);

/// Per-PE buffer threshold δ (Section IV-A): options.buffer_threshold_words,
/// or automatically max(1024, |E_i|) from the PE's local half-edge count —
/// for static and dynamic views alike.
[[nodiscard]] std::uint64_t auto_threshold(std::uint64_t local_half_edges,
                                           const AlgorithmOptions& options);

/// Copies simulator metrics/phase times into a result.
void fill_metrics(const net::Simulator& sim, CountResult& result);

}  // namespace katric::core
