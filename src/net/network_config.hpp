#pragma once

#include <cstdint>
#include <string>

namespace katric::net {

/// Machine-model parameters (Section II-B of the paper): sending a message
/// of ℓ words costs α + β·ℓ; PEs are connected full-duplex and single-ported.
/// Compute is charged per elementary operation (one comparison of a merge
/// intersection, one hash probe, …) so simulated time tracks the real
/// algorithmic work. All times in seconds.
struct NetworkConfig {
    double alpha = 2e-6;        ///< message startup overhead (OmniPath-class)
    double beta = 0.7e-9;       ///< per 64-bit word transfer time (~11 GB/s)
    double compute_op = 1.5e-9; ///< per elementary compute operation

    /// Per-PE budget for buffered communication data, in 64-bit words.
    /// Exceeding it raises OomError — this models the paper's observation
    /// that TriC's single-shot buffering exhausts PE memory. The default is
    /// deliberately scaled to the proxy-instance sizes (SuperMUC gives
    /// 96 GB / 48 cores = 2 GB/core for paper-scale inputs).
    std::uint64_t memory_limit_words = std::uint64_t{1} << 22;  // 32 MiB

    /// SuperMUC-NG-like defaults (above).
    [[nodiscard]] static NetworkConfig supermuc_like() { return {}; }

    /// Cloud-like network: two orders of magnitude higher latency, ~10× less
    /// bandwidth (the "cloud-indirect" Config preset): the regime of the
    /// paper's claim that CETRIC wins on slower interconnects.
    [[nodiscard]] static NetworkConfig cloud_like() {
        NetworkConfig cfg;
        cfg.alpha = 1e-4;
        cfg.beta = 8e-9;
        return cfg;
    }

    [[nodiscard]] std::string describe() const;

    friend bool operator==(const NetworkConfig&, const NetworkConfig&) = default;
};

}  // namespace katric::net
