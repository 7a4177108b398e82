#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "graph/types.hpp"
#include "seq/intersection.hpp"

namespace katric::seq {

/// The shared automatic hub-qualification policy: a row counts as a hub
/// once it is ≥ 4× the mean row length (and at least 8) — the far tail of
/// the rank's degree profile. Callers pass the mean of whatever row family
/// they index (oriented half-rows for static views, full rows for dynamic
/// ones).
[[nodiscard]] constexpr graph::Degree auto_hub_threshold(
    std::uint64_t mean_row_length) noexcept {
    return std::max<graph::Degree>(8, 4 * mean_row_length);
}

/// Per-rank dense-bitmap index over the adjacency rows of *hub* vertices —
/// the highest-degree rows, which dominate intersection cost under skewed
/// degree distributions (Kolountzakis et al.'s degree-based special-casing
/// of hubs). A hub's sorted row is materialized once as a bitmap over the
/// vertex-ID universe; intersecting anything against it then costs one bit
/// probe per element of the other side (or a word-AND + popcount when both
/// sides are hubs) instead of a merge over the hub's full degree.
///
/// Row identity: every indexed row remembers the (pointer, length) of the
/// storage it was built from. Lookups require the caller's span to match —
/// a span that refers to different storage (a contracted row, a received
/// wire record, a row that was reallocated) simply misses and the caller
/// falls back to the span kernels. This makes a stale bitmap structurally
/// unreachable rather than a correctness hazard.
///
/// Streaming: mark_dirty(v) records rows whose content changed;
/// rebuild_dirty() re-materializes exactly those rows (re-qualifying or
/// dropping them as their degree crosses the threshold) — a dirty-set
/// refresh, not a full rebuild.
class HubBitmapIndex {
public:
    struct Config {
        /// Rows with at least this many neighbors qualify as hubs.
        graph::Degree degree_threshold = 0;
        /// Hard cap on materialized hubs (top-k by degree); bounds memory to
        /// max_hubs · universe/64 words per rank.
        std::size_t max_hubs = 256;
        /// Number of vertex IDs a bitmap must cover (global n).
        graph::VertexId universe = 0;

        friend bool operator==(const Config&, const Config&) = default;
    };

    /// Supplies the current row of a vertex, or an empty span if the vertex
    /// has none. Used at build and dirty-rebuild time.
    using RowProvider =
        std::function<std::span<const graph::VertexId>(graph::VertexId)>;

    /// (Re)builds the index over `candidates`, keeping the top-k rows that
    /// meet the threshold. Returns the elementary ops spent (row scans for
    /// selection + one bit-set per indexed element) so callers can charge
    /// the simulator honestly.
    std::uint64_t build(const Config& config,
                        std::span<const graph::VertexId> candidates,
                        const RowProvider& rows);

    [[nodiscard]] bool empty() const noexcept { return num_hubs_ == 0; }
    [[nodiscard]] std::size_t num_hubs() const noexcept { return num_hubs_; }
    [[nodiscard]] const Config& config() const noexcept { return config_; }

    /// One bitmap row's bookkeeping. Returned by lookup() so hot intersect
    /// paths resolve a hub's slot once instead of re-hashing per kernel call.
    struct Slot {
        std::size_t index = 0;                    // row into bits_
        const graph::VertexId* data = nullptr;    // row-identity fingerprint
        std::size_t size = 0;
    };

    /// The slot when `id` is indexed over exactly `row`'s storage (see "row
    /// identity" above), nullptr otherwise — one linear probe sequence in a
    /// flat table of at most max_hubs entries. The pointer is invalidated by
    /// build/rebuild_dirty/clear.
    [[nodiscard]] const Slot* lookup(graph::VertexId id,
                                     std::span<const graph::VertexId> row) const noexcept;

    /// |row(hub) ∩ probe| via one bit probe per element of `probe`.
    /// ops = |probe|.
    [[nodiscard]] IntersectResult intersect_count(
        const Slot& hub, std::span<const graph::VertexId> probe) const;

    /// Collect variant: appends the matching elements of `probe` in probe
    /// order (ascending for sorted probes — the merge-collect contract).
    IntersectResult intersect_collect(const Slot& hub,
                                      std::span<const graph::VertexId> probe,
                                      std::vector<graph::VertexId>& out) const;

    /// |row(h1) ∩ row(h2)| as word-AND + popcount over the two bitmaps.
    /// ops = number of bitmap words.
    [[nodiscard]] IntersectResult intersect_hub_hub(const Slot& s1,
                                                    const Slot& s2) const;

    /// Word count of one bitmap row — the cost of a hub∩hub AND, exposed so
    /// dispatchers can compare it against the probe alternative.
    [[nodiscard]] std::uint64_t words_per_row() const noexcept { return words_per_row_; }

    /// Smallest indexed row length (SIZE_MAX when empty): rows shorter than
    /// this can never be covered, so hot dispatch paths use it to skip the
    /// slot lookup for the vast majority of non-hub operands. Maintained by
    /// build() and rebuild_dirty().
    [[nodiscard]] std::size_t min_indexed_row() const noexcept {
        return min_indexed_row_;
    }

    // --- streaming maintenance -------------------------------------------
    /// Records that v's row changed; cheap (amortized O(1)), callable from
    /// the mutation path.
    void mark_dirty(graph::VertexId v);
    [[nodiscard]] std::size_t num_dirty() const noexcept { return dirty_.size(); }
    /// Re-materializes every dirty row: re-qualifies rows that crossed the
    /// threshold upward, drops rows that fell below it, rewrites the rest.
    /// Returns charged ops (one per rewritten bit plus per-row scan).
    std::uint64_t rebuild_dirty(const RowProvider& rows);

    void clear();

private:
    /// One slot-table entry; id == kInvalidVertex marks it free.
    struct Entry {
        graph::VertexId id = graph::kInvalidVertex;
        Slot slot;
    };

    /// Position of `id`'s entry in slots_, slots_.size() when not indexed.
    [[nodiscard]] std::size_t position(graph::VertexId id) const noexcept;
    /// Adds `id` (not yet indexed) and returns its slot.
    Slot& insert(graph::VertexId id);
    /// Frees the entry at `pos` by shifting its probe run back — no
    /// tombstones.
    void erase(std::size_t pos) noexcept;

    void write_row(std::size_t slot_index, std::span<const graph::VertexId> row);
    [[nodiscard]] bool test(const Slot& slot, graph::VertexId v) const noexcept;

    void refresh_min_indexed_row() noexcept;

    Config config_;
    std::uint64_t words_per_row_ = 0;
    std::size_t min_indexed_row_ = SIZE_MAX;
    // Linear probing keyed by hash64(id), power-of-two size, at most half
    // full; empty until the first hub is indexed.
    std::vector<Entry> slots_;
    std::size_t num_hubs_ = 0;
    std::vector<std::size_t> free_slots_;  // recycled bitmap rows
    std::vector<std::uint64_t> bits_;
    std::vector<graph::VertexId> dirty_;
};

}  // namespace katric::seq
