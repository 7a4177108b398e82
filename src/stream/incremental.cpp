#include "stream/incremental.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <optional>
#include <sstream>
#include <string>

#include "core/exchange.hpp"
#include "seq/adaptive_intersect.hpp"
#include "util/assert.hpp"
#include "util/bits.hpp"

namespace katric::stream {
namespace {

using graph::Edge;

/// Record opcodes of the stream queue's logical records.
enum Op : std::uint64_t {
    kOpShip = 1,    ///< [op, a, b, flagged N(a)…]   — intersect at owner(b)
    kOpPull = 2,    ///< [op, a, b]                  — owner(b) ships N(b) back
    kOpDegree = 3,  ///< [op, v, degree]             — ghost-degree notification
};

/// High bit of a shipped neighbor word: the edge {sender, w} is itself part
/// of the phase's changed set (multiplicity-correction flag).
constexpr std::uint64_t kChangedFlag = std::uint64_t{1} << 63;

[[nodiscard]] std::uint64_t sum_messages(const net::Simulator& sim) {
    std::uint64_t total = 0;
    for (const auto& m : sim.rank_metrics()) { total += m.messages_sent; }
    return total;
}

[[nodiscard]] std::uint64_t sum_words(const net::Simulator& sim) {
    std::uint64_t total = 0;
    for (const auto& m : sim.rank_metrics()) { total += m.words_sent; }
    return total;
}

/// First validation violation in a batch, or nullopt when well-formed:
/// event times finite and ordered (folding is last-write-wins; NaN compares
/// false against everything, so it would slip past the order check) and
/// every endpoint inside the partition's vertex universe. Self-loops are NOT
/// violations — the streaming model treats them as no-op requests.
[[nodiscard]] std::optional<std::string> batch_violation(const EdgeBatch& batch,
                                                         std::uint64_t num_vertices) {
    double previous_time = -std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < batch.events.size(); ++i) {
        const auto& event = batch.events[i];
        if (!std::isfinite(event.time)) {
            std::ostringstream out;
            out << "batch event " << i << " has non-finite time " << event.time
                << "; batch events must carry finite times";
            return out.str();
        }
        if (event.time < previous_time) {
            std::ostringstream out;
            out << "batch event " << i << " at t=" << event.time
                << " precedes its predecessor at t=" << previous_time
                << "; batch events must be time-ordered";
            return out.str();
        }
        previous_time = event.time;
        if (event.u >= num_vertices || event.v >= num_vertices) {
            std::ostringstream out;
            out << "batch event " << i << " touches edge {" << event.u << ", "
                << event.v << "} outside the vertex universe [0, " << num_vertices
                << ")";
            return out.str();
        }
    }
    return std::nullopt;
}

}  // namespace

NetEffect fold_batch(const EdgeBatch& batch, const std::vector<DynamicDistGraph>& views) {
    const auto& partition = views.front().partition();
    struct Folded {
        Edge edge;  // canonical
        EventKind kind;
    };
    std::vector<Folded> folded;
    folded.reserve(batch.events.size());
    double previous_time = -std::numeric_limits<double>::infinity();
    for (const auto& event : batch.events) {
        // EdgeStream enforces nondecreasing times; hand-built batches must
        // honor the same contract, since folding is last-write-wins.
        KATRIC_ASSERT_MSG(event.time >= previous_time,
                          "batch events must be time-ordered");
        previous_time = event.time;
        if (event.u == event.v) { continue; }  // self-loops never count
        KATRIC_ASSERT_MSG(event.u < partition.num_vertices()
                              && event.v < partition.num_vertices(),
                          "stream event outside the vertex universe");
        folded.push_back({Edge{event.u, event.v}.canonical(), event.kind});
    }
    // Stable, so each edge's run keeps its events in time order and the
    // run's last event is the edge's final state.
    std::stable_sort(folded.begin(), folded.end(),
                     [](const Folded& a, const Folded& b) { return a.edge < b.edge; });

    NetEffect net;
    Rank owner = 0;
    for (std::size_t first = 0; first < folded.size();) {
        const Edge edge = folded[first].edge;
        std::size_t last = first;
        while (last + 1 < folded.size() && folded[last + 1].edge == edge) { ++last; }
        // owner(u) holds u's full row, so presence is a local question
        // there. The runs ascend by u, so the owner only moves forward.
        while (partition.end(owner) <= edge.u) { ++owner; }
        const bool initial = views[owner].has_edge(edge.u, edge.v);
        const bool current = folded[last].kind == EventKind::kInsert;
        if (initial && !current) {
            net.deletes.push_back(edge);
        } else if (!initial && current) {
            net.inserts.push_back(edge);
        }
        first = last + 1;
    }
    return net;
}

std::span<const Edge> owned_slice(std::span<const Edge> sorted,
                                  const graph::Partition1D& partition, Rank rank) {
    const auto u_below = [](const Edge& e, graph::VertexId bound) { return e.u < bound; };
    const auto first =
        std::lower_bound(sorted.begin(), sorted.end(), partition.begin(rank), u_below);
    const auto last = std::lower_bound(first, sorted.end(), partition.end(rank), u_below);
    return {first, last};
}

void ChangedEdges::assign(std::span<const Edge> edges) {
    // Both orientations, ascending by (source, target): the (u, v) side is
    // the input itself, so only the (v, u) side is sorted before one merge.
    reversed_.clear();
    for (std::size_t i = 0; i < edges.size(); ++i) {
        KATRIC_ASSERT_MSG(edges[i].u < edges[i].v, "changed edges are canonical");
        KATRIC_ASSERT_MSG(i == 0 || edges[i - 1] < edges[i],
                          "changed edges are strictly ascending");
        reversed_.push_back({edges[i].v, edges[i].u});
    }
    std::sort(reversed_.begin(), reversed_.end());
    sources_.clear();
    offsets_.clear();
    targets_.clear();
    const auto append = [&](const Edge& arc) {
        if (sources_.empty() || sources_.back() != arc.u) {
            sources_.push_back(arc.u);
            offsets_.push_back(targets_.size());
        }
        targets_.push_back(arc.v);
    };
    std::size_t i = 0;
    std::size_t j = 0;
    while (i < edges.size() || j < reversed_.size()) {
        if (j == reversed_.size() || (i < edges.size() && edges[i] < reversed_[j])) {
            append(edges[i++]);
        } else {
            append(reversed_[j++]);
        }
    }
    offsets_.push_back(targets_.size());
}

std::span<const graph::VertexId> ChangedEdges::neighbors(graph::VertexId x) const {
    const auto it = std::lower_bound(sources_.begin(), sources_.end(), x);
    if (it == sources_.end() || *it != x) { return {}; }
    const auto i = static_cast<std::size_t>(it - sources_.begin());
    return std::span<const graph::VertexId>(targets_).subspan(
        offsets_[i], offsets_[i + 1] - offsets_[i]);
}

IncrementalCounter::IncrementalCounter(net::Simulator& sim,
                                       std::vector<DynamicDistGraph>& views,
                                       const core::AlgorithmOptions& options,
                                       bool indirect, std::uint64_t initial_triangles)
    : sim_(&sim),
      views_(&views),
      options_(options),
      // The queue is long-lived across batches; epochs, not
      // reconstruction, mark the boundaries.
      queue_(core::make_queue(views, options,
                              indirect ? core::Routing::kGrid : core::Routing::kDirect,
                              core::kTagStream, /*epoch_stamped=*/true)),
      triangles_(initial_triangles) {
    KATRIC_ASSERT(static_cast<Rank>(views.size()) == sim.num_ranks());
    ranks_.resize(views.size());
    if (core::uses_hub_bitmaps(options.intersect)) {
        // Initial hub index — the streaming analogue of the bitmap build
        // inside static preprocessing, charged as its own one-time phase.
        // Streaming rows are full undirected neighborhoods, so the auto
        // threshold uses the full mean degree rather than the oriented
        // half.
        sim.run_phase("stream/hub-index", [&](net::RankHandle& self) {
            auto& view = views[self.rank()];
            const std::uint64_t rows = view.num_local();
            const std::uint64_t avg =
                rows == 0 ? 0 : view.num_local_half_edges() / rows;
            const auto threshold = options.hub_threshold != 0
                                       ? options.hub_threshold
                                       : seq::auto_hub_threshold(avg);
            self.charge_ops(view.enable_hub_bitmaps(threshold));
        }, {});
    }
}

std::span<const std::uint64_t> IncrementalCounter::flagged_row(
    net::RankHandle& self, graph::VertexId x, std::initializer_list<std::uint64_t> prefix) {
    // Flag-annotated N(x) after `prefix` — the wire form of a ship record
    // ([kOpShip, a, b] prefix) or a local intersection operand (empty
    // prefix). The row is copied whole; then each of x's few changed
    // neighbors is found in it by a binary search from the last one found.
    const auto row = (*views_)[self.rank()].neighbors(x);
    auto& record = ranks_[self.rank()].record;
    record.assign(prefix);
    record.insert(record.end(), row.begin(), row.end());
    std::uint64_t all = 0;
    for (const auto w : row) { all |= w; }
    KATRIC_ASSERT_MSG((all & kChangedFlag) == 0, "vertex ID collides with flag bit");
    std::uint64_t* words = record.data() + prefix.size();
    auto at = row.begin();
    for (const auto w : current_changed_->neighbors(x)) {
        at = std::lower_bound(at, row.end(), w);
        if (at == row.end()) { break; }
        if (*at == w) { words[at - row.begin()] |= kChangedFlag; }
    }
    self.charge_ops(row.size());
    return record;
}

void IncrementalCounter::post_edge_work(net::RankHandle& self, const Edge& edge) {
    const auto& view = (*views_)[self.rank()];
    const auto u = edge.u;
    const auto v = edge.v;
    if (view.is_local(v)) {
        intersect_and_accumulate(self, u, v, flagged_row(self, u, {}));
        return;
    }
    const Rank owner_v = view.partition().rank_of(v);
    const auto remote_degree = view.ghost_degree(v);
    if (!remote_degree.has_value() || view.degree(u) <= *remote_degree) {
        // Ship the (estimated) smaller side: N(u) travels to owner(v).
        queue_.post(self, owner_v, flagged_row(self, u, {kOpShip, u, v}));
    } else {
        // Pull: ask owner(v) to ship flagged N(v) back here.
        const std::array<std::uint64_t, 3> record{kOpPull, u, v};
        self.charge_ops(1);
        queue_.post(self, owner_v, record);
    }
}

void IncrementalCounter::intersect_and_accumulate(net::RankHandle& self,
                                                  graph::VertexId a,
                                                  graph::VertexId b,
                                                  std::span<const std::uint64_t> flagged_a) {
    const auto& view = (*views_)[self.rank()];
    // The dispatcher intersects vertex IDs, so the a-side flags are masked
    // off into a reused per-thread row; b's local row is the fixed side,
    // named so that an indexed hub serves the call from its bitmap.
    thread_local std::vector<graph::VertexId> row_a;
    row_a.clear();
    for (const std::uint64_t word : flagged_a) { row_a.push_back(word & ~kChangedFlag); }
    auto& common = seq::collect_scratch();
    common.clear();
    const seq::AdaptiveIntersect isect(options_.intersect, view.hub_index());
    self.charge_ops(isect.fix(view.neighbors(b), b).collect(row_a, common).ops);

    // Triangle {a, b, wa}: k = changed edges among its three sides; {a,b}
    // itself is changed by construction. The matches come out ascending, so
    // one forward cursor finds each one's a-side flag and another walks b's
    // ascending changed neighbors beside them.
    const auto changed_b = current_changed_->neighbors(b);
    std::uint64_t gained = 0;
    std::size_t i = 0;
    std::size_t j = 0;
    for (const graph::VertexId wa : common) {
        while (row_a[i] < wa) { ++i; }
        while (j < changed_b.size() && changed_b[j] < wa) { ++j; }
        const bool b_side = j < changed_b.size() && changed_b[j] == wa;
        const std::uint64_t k = 1 + ((flagged_a[i] & kChangedFlag) != 0 ? 1 : 0)
                                + (b_side ? 1 : 0);
        gained += 6 / k;  // k ∈ {1,2,3} ⇒ exact: 6, 3, 2
        if (sink_) {
            const auto sixths = phase_sign_ * static_cast<std::int64_t>(6 / k);
            for (const graph::VertexId x : {a, b, wa}) { sink_(self, x, sixths); }
        }
    }
    ranks_[self.rank()].sixths += gained;
}

void IncrementalCounter::deliver_record(net::RankHandle& self,
                                        std::span<const std::uint64_t> record) {
    KATRIC_ASSERT_MSG(!record.empty(), "empty stream record");
    auto& view = (*views_)[self.rank()];
    switch (record[0]) {
        case kOpShip: {
            KATRIC_ASSERT(record.size() >= 3);
            const graph::VertexId a = record[1];
            const graph::VertexId b = record[2];
            intersect_and_accumulate(self, a, b, record.subspan(3));
            return;
        }
        case kOpPull: {
            KATRIC_ASSERT(record.size() == 3);
            const graph::VertexId a = record[1];
            const graph::VertexId b = record[2];
            queue_.post(self, view.partition().rank_of(a),
                        flagged_row(self, b, {kOpShip, b, a}));
            return;
        }
        case kOpDegree: {
            KATRIC_ASSERT(record.size() == 3);
            view.note_ghost_degree(record[1], record[2]);
            self.charge_ops(1);
            return;
        }
        default: KATRIC_THROW("unknown stream record opcode " << record[0]);
    }
}

std::uint64_t IncrementalCounter::take_triangle_sixths() {
    std::uint64_t total = 0;
    for (auto& state : ranks_) {
        total += state.sixths;
        state.sixths = 0;
    }
    KATRIC_ASSERT_MSG(total % 6 == 0, "multiplicity correction out of balance: " << total);
    return total / 6;
}

BatchStats IncrementalCounter::apply_batch(const EdgeBatch& batch) {
    // Reject-before-mutate: a malformed batch must leave the distributed
    // state (and the batch index) exactly as it was.
    const auto& partition = views_->front().partition();
    if (auto violation = batch_violation(batch, partition.num_vertices())) {
        BatchStats rejected;
        rejected.batch_index = batch_index_;
        rejected.events = batch.events.size();
        rejected.triangles = triangles_;
        rejected.error = make_error(core::RunError::kInvalidInput, *violation);
        return rejected;
    }

    const NetEffect net = fold_batch(batch, *views_);
    deleted_.assign(net.deletes);
    inserted_.assign(net.inserts);

    BatchStats stats;
    stats.batch_index = batch_index_++;
    stats.events = batch.events.size();
    stats.net_inserts = net.inserts.size();
    stats.net_deletes = net.deletes.size();
    const double time_before = sim_->time();
    const std::uint64_t messages_before = sum_messages(*sim_);
    const std::uint64_t words_before = sum_words(*sim_);

    const auto deliver = std::bind_front(&IncrementalCounter::deliver_record, this);

    // Superstep 1: count old-graph triangles through every effective
    // deletion, before any adjacency changes anywhere.
    std::uint64_t lost = 0;
    if (!net.deletes.empty()) {
        current_changed_ = &deleted_;
        phase_sign_ = -1;
        queue_.run_phase(
            *sim_, "stream/delete",
            [&](net::RankHandle& self) {
                for (const auto& e : owned_slice(net.deletes, partition, self.rank())) {
                    post_edge_work(self, e);
                }
            },
            deliver);
        lost = take_triangle_sixths();
    }

    // Superstep 2: apply all deltas, refresh ghost degrees, count new-graph
    // triangles through every effective insertion. All starts run before
    // any delivery, so shipped neighborhoods are post-update everywhere.
    std::uint64_t gained = 0;
    if (!net.deletes.empty() || !net.inserts.empty()) {
        current_changed_ = &inserted_;
        phase_sign_ = 1;
        queue_.run_phase(
            *sim_, "stream/apply",
            [&](net::RankHandle& self) {
                auto& view = (*views_)[self.rank()];
                auto& state = ranks_[self.rank()];
                auto& touched = state.touched;
                touched.clear();
                // Both half-edges of every change, in list order: the ones
                // whose v is local lie scattered through the u-sorted
                // lists, so this pass reads them whole — two range compares
                // per edge.
                const auto apply = [&](const Edge& e, const bool insert) {
                    for (const auto& [x, y] : {std::pair{e.u, e.v}, std::pair{e.v, e.u}}) {
                        if (!view.is_local(x)) { continue; }
                        const bool applied = insert ? view.insert_half_edge(x, y)
                                                    : view.erase_half_edge(x, y);
                        KATRIC_ASSERT_MSG(applied, "net-effect delta was a no-op");
                        self.charge_ops(1 + ceil_log2(view.degree(x) + 2));
                        touched.push_back(x);
                    }
                };
                for (const auto& e : net.deletes) { apply(e, false); }
                for (const auto& e : net.inserts) { apply(e, true); }
                // Hub bitmaps must be fresh before any insertion counting —
                // local intersections below and deliveries from other ranks
                // (all starts run before any delivery). Dirty-set rebuild:
                // only rows this batch touched are re-materialized.
                self.charge_ops(view.rebuild_dirty_hubs());

                std::sort(touched.begin(), touched.end());
                touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
                for (const auto v : touched) {
                    self.charge_ops(view.degree(v) + 1);  // owner scan
                    const std::array<std::uint64_t, 3> note{kOpDegree, v, view.degree(v)};
                    view.neighbor_ranks(v, state.owners);
                    for (const Rank owner : state.owners) {
                        queue_.post(self, owner, note);
                    }
                }

                for (const auto& e : owned_slice(net.inserts, partition, self.rank())) {
                    post_edge_work(self, e);
                }
            },
            deliver);
        gained = take_triangle_sixths();
    }
    current_changed_ = nullptr;

    KATRIC_ASSERT_MSG(triangles_ + gained >= lost, "triangle count went negative");
    triangles_ = triangles_ + gained - lost;
    stats.delta = static_cast<std::int64_t>(gained) - static_cast<std::int64_t>(lost);
    stats.triangles = triangles_;
    stats.seconds = sim_->time() - time_before;
    stats.messages_sent = sum_messages(*sim_) - messages_before;
    stats.words_sent = sum_words(*sim_) - words_before;
    return stats;
}

}  // namespace katric::stream
