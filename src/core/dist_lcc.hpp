#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "core/runner.hpp"

namespace katric::core {

/// Per-rank Δ(v) accumulators shared by the static LCC postprocess and the
/// streaming incremental-LCC path (Section IV-E's attribution discipline):
/// a dense signed array for every rank's local vertices plus a flat
/// open-addressing table of ghost contributions awaiting their owner — a
/// credit is a few array reads, never a node allocation. Values are in
/// caller-chosen units — whole triangles for the static path, sixths of a
/// triangle for the streaming multiplicity-corrected path. Only the
/// transport differs between the two users: compute_distributed_lcc drains
/// the ghosts through one postprocess all-to-all, stream::IncrementalLcc
/// through an epoch-stamped message-queue exchange per batch.
class LccDeltaState {
public:
    LccDeltaState() = default;
    explicit LccDeltaState(graph::Partition1D partition);

    [[nodiscard]] const graph::Partition1D& partition() const noexcept {
        return partition_;
    }

    /// Credits `amount` to Δ(v) as observed at `finder`: the dense local
    /// slot when finder owns v, finder's ghost table otherwise.
    void credit(Rank finder, VertexId v, std::int64_t amount);

    /// Drains rank r's ghost contributions as (vertex, amount) pairs sorted
    /// by vertex — the deterministic payload order of both flush transports.
    /// Contributions that cancelled to 0 are kept. The table keeps its
    /// capacity for the next batch.
    [[nodiscard]] std::vector<std::pair<VertexId, std::int64_t>> drain_ghosts(Rank r);

    /// Owner-side fold of one flushed contribution.
    void absorb(Rank owner, VertexId v, std::int64_t amount);

    /// Post-flush invariant: every ghost contribution reached its owner.
    [[nodiscard]] bool ghosts_empty() const noexcept;

    /// Owner-side value of one local vertex.
    [[nodiscard]] std::int64_t local(Rank owner, VertexId v) const;

    /// Host-side assembly of the global per-vertex vector. Asserts that no
    /// accumulator is negative (a correct attribution never undercounts a
    /// vertex below zero once all units are accounted).
    [[nodiscard]] std::vector<std::int64_t> assemble() const;

private:
    /// One rank's ghost contributions: linear probing over packed
    /// {vertex, amount} entries, at most ¾ full, keyed by kInvalidVertex
    /// when free. On a cache line of its own: the ranks of a start round or
    /// delivery window credit from different host threads.
    struct alignas(64) GhostTable {
        struct Entry {
            VertexId vertex = graph::kInvalidVertex;
            std::int64_t amount = 0;
        };
        std::vector<Entry> entries;  // power-of-two size once used
        std::size_t used = 0;

        void add(VertexId v, std::int64_t amount);
        void grow();
    };

    graph::Partition1D partition_;
    std::vector<std::vector<std::int64_t>> local_;
    std::vector<GhostTable> ghost_;
};

/// Distributed local-clustering-coefficient computation (Section IV-E).
/// The counting algorithm reports every triangle from exactly one incident
/// vertex; Δ(v), Δ(u), Δ(w) are incremented at the finding PE — directly
/// for local vertices, in a ghost counter otherwise (every vertex of a
/// discovered triangle is provably local-or-ghost at the finder). A
/// postprocessing all-to-all pushes ghost Δ contributions to the owners,
/// analogous to the initial degree exchange.
struct LccResult {
    CountResult count;                 ///< triangle count + metrics of the base run
    std::vector<std::uint64_t> delta;  ///< Δ(v) for every global vertex
    std::vector<double> lcc;           ///< LCC(v) = 2Δ(v)/(d_v(d_v−1))
    double postprocess_time = 0.0;     ///< simulated time of the Δ aggregation
};

/// Runs over per-rank views that run_preprocessing already preprocessed: the
/// views must stem from `global` under spec's partition/rank count, and the
/// run only charges the front half as `preprocess` says. spec.algorithm must
/// support a triangle sink (the edge-iterator family or CETRIC/CETRIC2);
/// otherwise the returned result carries count.error ==
/// RunError::kSinkUnsupported and nothing is charged.
[[nodiscard]] LccResult compute_distributed_lcc(net::Simulator& sim,
                                                const std::vector<DistGraph>& views,
                                                const graph::CsrGraph& global,
                                                const RunSpec& spec,
                                                const Preprocess& preprocess = {});

}  // namespace katric::core
