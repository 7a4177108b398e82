#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/simulator.hpp"

namespace katric::net {

/// Collective operations executed on the simulated machine. Each call runs
/// one phase (superstep) and records its timing under the given name.

/// Personalized all-to-all exchange. sends[src][dest] is the payload src
/// contributes for dest; returns recv where recv[dest][src] is that payload.
/// In dense mode every PE sends p−1 messages, including empty ones — the
/// simple exchange the paper uses for the ghost-degree preprocessing. In
/// sparse mode only non-empty payloads travel (Hoefler-style sparse
/// collective): cheaper when the communication graph is sparse, but the
/// dense variant is more robust under skewed degree distributions
/// (Section IV-D).
[[nodiscard]] std::vector<std::vector<WordVec>> all_to_all(
    Simulator& sim, std::vector<std::vector<WordVec>> sends, bool sparse,
    const std::string& phase_name);

/// Size-only replay of all_to_all: charges the machine exactly as an
/// all_to_all whose payload sizes are words[src][dest] — same offset
/// schedule, same timing, same message/volume metrics — but ships no data
/// and delivers nothing. O(p²) host work instead of O(exchange volume);
/// this is what lets an Engine replay its preprocessing charges per
/// query without serializing on payload materialization
/// (core::charge_preprocessing). Metric identity with the real collective
/// holds because all_to_all's receive handler only copies payload bytes —
/// it charges no ops.
void charge_all_to_all(Simulator& sim,
                       const std::vector<std::vector<std::uint64_t>>& words, bool sparse,
                       const std::string& phase_name);

/// Binomial-tree all-reduce (sum) of one 64-bit value per PE: reduce to rank
/// 0 along the tree, then broadcast back. Works for any p ≥ 1. Returns the
/// global sum (identical on every PE; verified internally).
[[nodiscard]] std::uint64_t allreduce_sum(Simulator& sim,
                                          const std::vector<std::uint64_t>& values,
                                          const std::string& phase_name);

}  // namespace katric::net
