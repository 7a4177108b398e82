#include "graph/distributed_graph.hpp"

#include <algorithm>
#include <bit>
#include <limits>

#include "util/assert.hpp"
#include "util/bits.hpp"
#include "util/prefix_sum.hpp"

namespace katric::graph {

namespace {

constexpr std::uint64_t bit_of(VertexId v) noexcept { return std::uint64_t{1} << (v % 64); }

}  // namespace

template <typename RowOf>
DistGraph DistGraph::assemble(const Partition1D& partition, Rank rank, RowOf row_of) {
    DistGraph view;
    view.partition_ = partition;
    view.rank_ = rank;
    const VertexId begin = partition.begin(rank);
    const VertexId end = partition.end(rank);

    view.offsets_.resize(end - begin + 1);
    view.offsets_[0] = 0;
    for (VertexId v = begin; v < end; ++v) {
        view.offsets_[v - begin + 1] = view.offsets_[v - begin] + row_of(v).size();
    }
    view.targets_.reserve(view.offsets_.back());
    for (VertexId v = begin; v < end; ++v) {
        const auto nbrs = row_of(v);
        view.targets_.insert(view.targets_.end(), nbrs.begin(), nbrs.end());
    }

    // Ghosts: mark every cut target in the bitmap over the vertex IDs, then
    // scan its words. The set bits come out sorted and unique, in
    // O(half-edges + n/64), and the same scan fills each word's rank prefix.
    const VertexId n = partition.num_vertices();
    auto& words = view.ghost_words_;
    words.resize(div_ceil(n, 64));
    for (VertexId target : view.targets_) {
        if (target < begin || target >= end) {
            KATRIC_ASSERT_MSG(target < n, "neighbor " << target << " is outside the "
                                                       << n << " partitioned vertices");
            words[target / 64].bits |= bit_of(target);
            ++view.num_cut_edges_;
        }
    }
    std::size_t num_ghosts = 0;
    for (auto& word : words) {
        word.before = num_ghosts;
        num_ghosts += static_cast<std::size_t>(std::popcount(word.bits));
    }
    view.ghost_ids_.reserve(num_ghosts);
    for (std::size_t w = 0; w < words.size(); ++w) {
        for (std::uint64_t bits = words[w].bits; bits != 0; bits &= bits - 1) {
            view.ghost_ids_.push_back(w * 64 + static_cast<VertexId>(std::countr_zero(bits)));
        }
    }
    view.ghost_degrees_.assign(num_ghosts, 0);
    return view;
}

DistGraph DistGraph::from_global(const CsrGraph& global, const Partition1D& partition,
                                 Rank rank) {
    KATRIC_ASSERT(rank < partition.num_ranks());
    KATRIC_ASSERT_MSG(partition.num_vertices() == global.num_vertices(),
                      "partition covers " << partition.num_vertices() << " vertices, graph has "
                                          << global.num_vertices());
    return assemble(partition, rank, [&](VertexId v) { return global.neighbors(v); });
}

DistGraph DistGraph::from_local_edges(const Partition1D& partition, Rank rank,
                                      EdgeList local_edges) {
    KATRIC_ASSERT(rank < partition.num_ranks());
    local_edges.normalize();
    const VertexId begin = partition.begin(rank);
    const VertexId end = partition.end(rank);

    std::vector<std::vector<VertexId>> adjacency(end - begin);
    for (const auto& e : local_edges.edges()) {
        const bool u_local = e.u >= begin && e.u < end;
        const bool v_local = e.v >= begin && e.v < end;
        KATRIC_ASSERT_MSG(u_local || v_local,
                          "edge {" << e.u << ',' << e.v << "} has no endpoint on rank "
                                   << rank);
        if (u_local) { adjacency[e.u - begin].push_back(e.v); }
        if (v_local) { adjacency[e.v - begin].push_back(e.u); }
    }
    for (auto& nbrs : adjacency) {
        std::sort(nbrs.begin(), nbrs.end());
        nbrs.erase(std::unique(nbrs.begin(), nbrs.end()), nbrs.end());
    }
    return assemble(partition, rank, [&](VertexId v) {
        return std::span<const VertexId>(adjacency[v - begin]);
    });
}

std::size_t DistGraph::local_index(VertexId v) const {
    KATRIC_ASSERT_MSG(is_local(v), "vertex " << v << " is not local to rank " << rank_);
    return static_cast<std::size_t>(v - first_local());
}

Degree DistGraph::degree(VertexId v) const {
    if (is_local(v)) {
        const std::size_t i = local_index(v);
        return offsets_[i + 1] - offsets_[i];
    }
    const auto gi = ghost_index(v);
    KATRIC_ASSERT_MSG(gi.has_value(), "vertex " << v << " is neither local nor ghost");
    KATRIC_ASSERT_MSG(ghost_degrees_set_, "ghost degrees not exchanged yet");
    return ghost_degrees_[*gi];
}

std::span<const VertexId> DistGraph::neighbors(VertexId local_v) const {
    const std::size_t i = local_index(local_v);
    return {targets_.data() + offsets_[i], targets_.data() + offsets_[i + 1]};
}

std::optional<std::size_t> DistGraph::ghost_index(VertexId v) const noexcept {
    const VertexId w = v / 64;
    if (w >= ghost_words_.size()) { return std::nullopt; }
    const GhostWord& word = ghost_words_[w];
    const std::uint64_t bit = bit_of(v);
    if ((word.bits & bit) == 0) { return std::nullopt; }
    return word.before + static_cast<std::size_t>(std::popcount(word.bits & (bit - 1)));
}

void DistGraph::set_ghost_degree(std::size_t index, Degree degree_value) {
    KATRIC_ASSERT(index < ghost_degrees_.size());
    ghost_degrees_[index] = degree_value;
}

void DistGraph::fill_ghost_degrees_from(const CsrGraph& global) {
    for (std::size_t i = 0; i < ghost_ids_.size(); ++i) {
        ghost_degrees_[i] = global.degree(ghost_ids_[i]);
    }
    ghost_degrees_set_ = true;
}

bool DistGraph::is_interface(VertexId local_v) const {
    for (VertexId u : neighbors(local_v)) {
        if (!is_local(u)) { return true; }
    }
    return false;
}

void DistGraph::build_oriented() {
    if (oriented_built_) { return; }
    KATRIC_ASSERT_MSG(ghost_degrees_set_,
                      "build_oriented requires the ghost-degree exchange to have run");
    const VertexId begin = first_local();
    const VertexId end = begin + num_local();
    const std::size_t local_count = num_local();
    const std::size_t ghost_count = ghost_ids_.size();

    // Pass 1 resolves each half-edge (v, u) once: whether u is a ghost, its
    // slot if so, and whether v ≺ u (degree order, ties by ID). The code
    // array is transient. The same pass counts the three rows' degrees:
    //   A(v)  = {u | v ≺ u}                  (out_neighbors)
    //   A(g)  = {v | g ≺ v} per ghost g      (rewired incoming cut edges)
    //   Ac(v) = A(v) \ V_i                   (contracted_out_neighbors)
    constexpr std::uint32_t kOut = 1;
    constexpr std::uint32_t kGhost = 2;
    constexpr unsigned kSlotShift = 2;
    KATRIC_ASSERT_MSG(ghost_count <= (std::numeric_limits<std::uint32_t>::max() >> kSlotShift),
                      ghost_count << " ghosts exceed the slot code");
    std::vector<std::uint32_t> code(targets_.size());
    std::vector<EdgeId> out_degree(local_count, 0);
    std::vector<EdgeId> contracted_degree(local_count, 0);
    std::vector<EdgeId> ghost_out_degree(ghost_count, 0);
    for (std::size_t i = 0; i < local_count; ++i) {
        const VertexId v = begin + i;
        const Degree dv = offsets_[i + 1] - offsets_[i];
        for (EdgeId e = offsets_[i]; e < offsets_[i + 1]; ++e) {
            const VertexId u = targets_[e];
            const bool ghost = u < begin || u >= end;
            std::size_t slot = 0;
            Degree du = 0;
            if (ghost) {
                slot = *ghost_index(u);
                du = ghost_degrees_[slot];
            } else {
                const std::size_t j = static_cast<std::size_t>(u - begin);
                du = offsets_[j + 1] - offsets_[j];
            }
            const bool v_first = dv != du ? dv < du : v < u;
            if (v_first) {
                ++out_degree[i];
                if (ghost) { ++contracted_degree[i]; }
            } else if (ghost) {
                ++ghost_out_degree[slot];
            }
            code[e] = static_cast<std::uint32_t>(slot << kSlotShift)
                      | (ghost ? kGhost : 0) | (v_first ? kOut : 0);
        }
    }

    // Pass 2 fills the three rows. Scanning v in increasing ID order keeps
    // every row ID-sorted, the rewired ghost rows included.
    out_offsets_ = katric::exclusive_prefix_sum(std::span<const EdgeId>(out_degree));
    contracted_offsets_ =
        katric::exclusive_prefix_sum(std::span<const EdgeId>(contracted_degree));
    ghost_out_offsets_ =
        katric::exclusive_prefix_sum(std::span<const EdgeId>(ghost_out_degree));
    out_targets_.resize(out_offsets_.back());
    contracted_targets_.resize(contracted_offsets_.back());
    ghost_out_targets_.resize(ghost_out_offsets_.back());
    std::vector<EdgeId> ghost_cursor(ghost_out_offsets_.begin(), ghost_out_offsets_.end() - 1);
    EdgeId out_next = 0;
    EdgeId contracted_next = 0;
    for (std::size_t i = 0; i < local_count; ++i) {
        const VertexId v = begin + i;
        for (EdgeId e = offsets_[i]; e < offsets_[i + 1]; ++e) {
            const std::uint32_t c = code[e];
            if ((c & kOut) != 0) {
                out_targets_[out_next++] = targets_[e];
                if ((c & kGhost) != 0) { contracted_targets_[contracted_next++] = targets_[e]; }
            } else if ((c & kGhost) != 0) {
                ghost_out_targets_[ghost_cursor[c >> kSlotShift]++] = v;
            }
        }
    }

    oriented_built_ = true;
}

std::span<const VertexId> DistGraph::out_neighbors(VertexId local_v) const {
    KATRIC_ASSERT(oriented_built_);
    const std::size_t i = local_index(local_v);
    return {out_targets_.data() + out_offsets_[i], out_targets_.data() + out_offsets_[i + 1]};
}

std::span<const VertexId> DistGraph::ghost_out_neighbors(std::size_t index) const {
    KATRIC_ASSERT(oriented_built_);
    KATRIC_ASSERT(index < ghost_ids_.size());
    return {ghost_out_targets_.data() + ghost_out_offsets_[index],
            ghost_out_targets_.data() + ghost_out_offsets_[index + 1]};
}

std::span<const VertexId> DistGraph::contracted_out_neighbors(VertexId local_v) const {
    KATRIC_ASSERT(oriented_built_);
    const std::size_t i = local_index(local_v);
    return {contracted_targets_.data() + contracted_offsets_[i],
            contracted_targets_.data() + contracted_offsets_[i + 1]};
}

std::span<const VertexId> DistGraph::a_set(VertexId v) const {
    if (is_local(v)) { return out_neighbors(v); }
    const auto gi = ghost_index(v);
    KATRIC_ASSERT_MSG(gi.has_value(), "a_set: vertex " << v << " not visible on rank " << rank_);
    return ghost_out_neighbors(*gi);
}

EdgeId DistGraph::contracted_size() const {
    KATRIC_ASSERT(oriented_built_);
    return contracted_offsets_.back();
}

std::uint64_t DistGraph::build_hub_bitmaps(seq::HubBitmapIndex::Config config) {
    KATRIC_ASSERT_MSG(oriented_built_, "hub bitmaps index the oriented rows");
    if (config.universe == 0) { config.universe = partition_.num_vertices(); }
    // Fresh index per build: views get copied freely by tests/benches, and a
    // shared mutable index across copies would alias their row fingerprints.
    auto index = std::make_shared<seq::HubBitmapIndex>();
    std::vector<VertexId> candidates;
    candidates.reserve(num_local() + num_ghosts());
    for (VertexId v = first_local(); v < first_local() + num_local(); ++v) {
        candidates.push_back(v);
    }
    for (std::size_t g = 0; g < num_ghosts(); ++g) { candidates.push_back(ghost_ids_[g]); }
    const auto ops =
        index->build(config, candidates, [this](VertexId id) { return a_set(id); });
    hub_index_ = std::move(index);
    return ops;
}

std::vector<DistGraph> distribute(const CsrGraph& global, const Partition1D& partition) {
    std::vector<DistGraph> views;
    views.reserve(partition.num_ranks());
    for (Rank i = 0; i < partition.num_ranks(); ++i) {
        views.push_back(DistGraph::from_global(global, partition, i));
    }
    return views;
}

}  // namespace katric::graph
