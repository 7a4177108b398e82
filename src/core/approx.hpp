#pragma once

#include <cstdint>

#include "core/runner.hpp"

namespace katric::core {

/// Approximate triangle counting (Section IV-E).

/// CETRIC-AMQ: type-1/2 triangles are counted exactly in the local phase;
/// in the global phase a Bloom filter of the contracted neighborhood
/// A'(v) ≈ Ac(v) travels instead of the list. The receiver approximates
/// |Ac(v) ∩ Ac(u)| by querying the members of Ac(u) against A'(v) and —
/// when `truthful` — subtracts the expected false positives:
///   E[positives] = t + (q − t)·f  ⇒  t̂ = (positives − q·f)/(1 − f),
/// an unbiased estimator of the true intersection size t (q = |Ac(u)|,
/// f = the filter's false-positive rate at its actual load).
struct AmqOptions {
    double target_fpr = 0.02;  ///< filter sizing target
    bool truthful = true;      ///< apply the false-positive correction
    /// Adaptive record encoding (the compressed-AMQ idea of the paper's
    /// footnote 2, taken one step further): per neighborhood, ship whichever
    /// of {raw ID list (exact), Bloom filter} is smaller on the wire. Short
    /// contracted lists stay exact for free; only the fat ones pay the
    /// approximation.
    bool adaptive = false;
    std::uint64_t seed = 0x5eed;

    friend bool operator==(const AmqOptions&, const AmqOptions&) = default;
};

struct AmqResult {
    double estimated_triangles = 0.0;  ///< exact type-1/2 + estimated type-3
    std::uint64_t exact_type12 = 0;
    double estimated_type3 = 0.0;
    CountResult metrics;  ///< timings and communication of the approximate run
};

/// Runs over per-rank views that run_preprocessing already preprocessed
/// with spec.options; the run only charges the front half as `preprocess`
/// says.
[[nodiscard]] AmqResult count_triangles_cetric_amq(net::Simulator& sim,
                                                   const std::vector<DistGraph>& views,
                                                   const RunSpec& spec,
                                                   const AmqOptions& amq,
                                                   const Preprocess& preprocess = {});

/// DOULION (Tsourakakis et al.): keep each edge with probability keep_prob;
/// a count T' on the sparsified graph estimates T ≈ T′/keep_prob³. Uses any
/// distributed counting algorithm as the black box, as in Section III-B.
[[nodiscard]] graph::CsrGraph sparsify_doulion(const graph::CsrGraph& global,
                                               double keep_prob, std::uint64_t seed);
[[nodiscard]] constexpr double doulion_scale(double keep_prob) {
    return 1.0 / (keep_prob * keep_prob * keep_prob);
}

/// Colorful counting (Pagh & Tsourakakis): color vertices with N colors by
/// hash, keep monochromatic edges; T ≈ T′·N².
[[nodiscard]] graph::CsrGraph sparsify_colorful(const graph::CsrGraph& global,
                                                std::uint64_t num_colors,
                                                std::uint64_t seed);
[[nodiscard]] constexpr double colorful_scale(std::uint64_t num_colors) {
    return static_cast<double>(num_colors) * static_cast<double>(num_colors);
}

}  // namespace katric::core
