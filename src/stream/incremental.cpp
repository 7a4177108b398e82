#include "stream/incremental.hpp"

#include <algorithm>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <unordered_map>

#include "core/exchange.hpp"
#include "util/assert.hpp"
#include "util/bits.hpp"

namespace katric::stream {
namespace {

using graph::Edge;

/// Record opcodes of the stream queues' logical records.
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
/// events time-ordered (folding is last-write-wins) and every endpoint
/// inside the partition's vertex universe. Self-loops are NOT violations —
/// the streaming model treats them as no-op requests.
[[nodiscard]] std::optional<std::string> batch_violation(const EdgeBatch& batch,
                                                         std::uint64_t num_vertices) {
    double previous_time = -std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < batch.events.size(); ++i) {
        const auto& event = batch.events[i];
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

IncrementalCounter::IncrementalCounter(net::Simulator& sim,
                                       std::vector<DynamicDistGraph>& views,
                                       const core::AlgorithmOptions& options,
                                       bool indirect, std::uint64_t initial_triangles)
    : sim_(&sim),
      views_(&views),
      options_(options),
      router_(core::make_router(sim.num_ranks(), indirect)),
      // The queues are long-lived across batches; epochs, not
      // reconstruction, mark the boundaries.
      queues_(core::make_queues(views, options, *router_, core::kTagStream,
                                /*epoch_stamped=*/true)),
      triangles_(initial_triangles) {
    KATRIC_ASSERT(static_cast<Rank>(views.size()) == sim.num_ranks());
    sixths_.assign(views.size(), 0);
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

IncrementalCounter::NetEffect IncrementalCounter::fold_batch(const EdgeBatch& batch) const {
    const auto& partition = views_->front().partition();

    struct Presence {
        bool initial;
        bool current;
    };
    std::unordered_map<EdgeKey, Presence, PairHash> folded;
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
        const Edge edge = Edge{event.u, event.v}.canonical();
        const EdgeKey key{edge.u, edge.v};
        auto it = folded.find(key);
        if (it == folded.end()) {
            // owner(u) holds u's full row, so presence is a local question
            // there; both owners would fold to the identical net effect.
            const bool present = (*views_)[partition.rank_of(edge.u)].has_edge(edge.u, edge.v);
            it = folded.emplace(key, Presence{present, present}).first;
        }
        it->second.current = event.kind == EventKind::kInsert;
    }

    NetEffect net;
    for (const auto& [key, presence] : folded) {
        if (presence.initial && !presence.current) {
            net.deletes.push_back(Edge{key.first, key.second});
        } else if (!presence.initial && presence.current) {
            net.inserts.push_back(Edge{key.first, key.second});
        }
    }
    // The folding map is unordered; sort so simulation traffic (and thus
    // simulated times) is deterministic.
    std::sort(net.deletes.begin(), net.deletes.end());
    std::sort(net.inserts.begin(), net.inserts.end());
    return net;
}

void IncrementalCounter::start_epoch(std::uint64_t epoch) {
    for (auto& queue : queues_) { queue.begin_epoch(epoch); }
}

bool IncrementalCounter::edge_changed(graph::VertexId x, graph::VertexId w) const {
    const Edge edge = Edge{x, w}.canonical();
    return current_changed_->contains(EdgeKey{edge.u, edge.v});
}

net::WordVec IncrementalCounter::flagged_row(net::RankHandle& self, graph::VertexId x,
                                             net::WordVec prefix) {
    // Flag-annotated N(x) appended to `prefix` — the wire form of a ship
    // record ([kOpShip, a, b] prefix) or a local intersection operand
    // (empty prefix).
    const auto row = (*views_)[self.rank()].neighbors(x);
    prefix.reserve(prefix.size() + row.size());
    for (const auto w : row) {
        KATRIC_ASSERT_MSG((w & kChangedFlag) == 0, "vertex ID collides with flag bit");
        prefix.push_back(w | (edge_changed(x, w) ? kChangedFlag : 0));
    }
    self.charge_ops(row.size());
    return prefix;
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
        const auto record = flagged_row(self, u, net::WordVec{kOpShip, u, v});
        queues_[self.rank()].post(self, owner_v, record);
    } else {
        // Pull: ask owner(v) to ship flagged N(v) back here.
        const net::WordVec record{kOpPull, u, v};
        self.charge_ops(1);
        queues_[self.rank()].post(self, owner_v, record);
    }
}

void IncrementalCounter::intersect_and_accumulate(net::RankHandle& self,
                                                  graph::VertexId a,
                                                  graph::VertexId b,
                                                  std::span<const std::uint64_t> flagged_a) {
    const auto& view = (*views_)[self.rank()];
    const auto row_b = view.neighbors(b);
    std::uint64_t gained = 0;
    // Triangle {a, b, wa}: k = changed edges among its three sides; {a,b}
    // itself is changed by construction. Every kernel below reports the
    // same matches in the same (ascending wa) order — only the charged
    // cost differs.
    const auto found = [&](graph::VertexId wa, bool a_side_changed) {
        const std::uint64_t k = 1 + (a_side_changed ? 1 : 0)
                                + (edge_changed(b, wa) ? 1 : 0);
        gained += 6 / k;  // k ∈ {1,2,3} ⇒ exact: 6, 3, 2
        if (sink_) {
            const auto sixths = phase_sign_ * static_cast<std::int64_t>(6 / k);
            for (const graph::VertexId x : {a, b, wa}) { sink_(self, x, sixths); }
        }
    };

    const auto kind = options_.intersect;
    const auto* hubs = view.hub_index();
    if (core::uses_hub_bitmaps(kind) && hubs != nullptr && hubs->covers(b, row_b)) {
        // Hub path: one bit probe per shipped neighbor instead of a merge
        // over b's (large) row.
        self.charge_ops(flagged_a.size());
        for (const std::uint64_t word : flagged_a) {
            const graph::VertexId wa = word & ~kChangedFlag;
            if (hubs->probe(b, wa)) { found(wa, (word & kChangedFlag) != 0); }
        }
        sixths_[self.rank()] += gained;
        return;
    }
    if (kind == seq::IntersectKind::kAdaptive && flagged_a.size() <= row_b.size()
        && seq::probe_search_pays_off(flagged_a.size(), row_b.size())) {
        // Galloping path: walk the (small) shipped row, gallop the local
        // one. The a-side flags ride along; masking restores the IDs.
        std::uint64_t ops = 0;
        std::size_t pos = 0;
        for (const std::uint64_t word : flagged_a) {
            const graph::VertexId wa = word & ~kChangedFlag;
            pos = seq::gallop_lower_bound(row_b, pos, wa, ops);
            if (pos == row_b.size()) { break; }
            ++ops;
            if (row_b[pos] == wa) {
                found(wa, (word & kChangedFlag) != 0);
                ++pos;
            }
        }
        self.charge_ops(ops);
        sixths_[self.rank()] += gained;
        return;
    }
    // Merge path (kMerge, or kAdaptive when neither shortcut applies): the
    // flag bit sits above any valid vertex ID, so masking per element keeps
    // the scan order intact.
    self.charge_ops(flagged_a.size() + row_b.size());
    std::size_t i = 0;
    std::size_t j = 0;
    while (i < flagged_a.size() && j < row_b.size()) {
        const graph::VertexId wa = flagged_a[i] & ~kChangedFlag;
        const graph::VertexId wb = row_b[j];
        if (wa < wb) {
            ++i;
        } else if (wb < wa) {
            ++j;
        } else {
            found(wa, (flagged_a[i] & kChangedFlag) != 0);
            ++i;
            ++j;
        }
    }
    sixths_[self.rank()] += gained;
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
            const auto reply = flagged_row(self, b, net::WordVec{kOpShip, b, a});
            queues_[self.rank()].post(self, view.partition().rank_of(a), reply);
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
    for (auto& s : sixths_) {
        total += s;
        s = 0;
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

    const NetEffect net = fold_batch(batch);
    EdgeSet deleted;
    for (const auto& e : net.deletes) { deleted.insert(EdgeKey{e.u, e.v}); }
    EdgeSet inserted;
    for (const auto& e : net.inserts) { inserted.insert(EdgeKey{e.u, e.v}); }

    BatchStats stats;
    stats.batch_index = batch_index_++;
    stats.events = batch.events.size();
    stats.net_inserts = net.inserts.size();
    stats.net_deletes = net.deletes.size();
    const double time_before = sim_->time();
    const std::uint64_t messages_before = sum_messages(*sim_);
    const std::uint64_t words_before = sum_words(*sim_);

    const auto on_message = [this](net::RankHandle& self, Rank /*src*/, int /*tag*/,
                                   std::span<const std::uint64_t> payload) {
        queues_[self.rank()].handle(self, payload,
                                    [this](net::RankHandle& s,
                                           std::span<const std::uint64_t> record) {
                                        deliver_record(s, record);
                                    });
    };
    const auto on_idle = [this](net::RankHandle& self) {
        auto& queue = queues_[self.rank()];
        if (queue.has_buffered()) { queue.flush(self); }
    };

    // Superstep 1: count old-graph triangles through every effective
    // deletion, before any adjacency changes anywhere.
    std::uint64_t lost = 0;
    if (!net.deletes.empty()) {
        start_epoch(++epoch_);
        current_changed_ = &deleted;
        phase_sign_ = -1;
        sim_->run_phase(
            "stream/delete",
            [&](net::RankHandle& self) {
                const auto& view = (*views_)[self.rank()];
                for (const auto& e : net.deletes) {
                    if (view.partition().rank_of(e.u) == self.rank()) {
                        post_edge_work(self, e);
                    }
                }
            },
            on_message, on_idle);
        lost = take_triangle_sixths();
    }

    // Superstep 2: apply all deltas, refresh ghost degrees, count new-graph
    // triangles through every effective insertion. All starts run before
    // any delivery, so shipped neighborhoods are post-update everywhere.
    std::uint64_t gained = 0;
    if (!net.deletes.empty() || !net.inserts.empty()) {
        start_epoch(++epoch_);
        current_changed_ = &inserted;
        phase_sign_ = 1;
        sim_->run_phase(
            "stream/apply",
            [&](net::RankHandle& self) {
                auto& view = (*views_)[self.rank()];
                std::vector<graph::VertexId> touched;
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
                    const net::WordVec note{kOpDegree, v, view.degree(v)};
                    for (const Rank owner : view.neighbor_ranks(v)) {
                        queues_[self.rank()].post(self, owner, note);
                    }
                }

                for (const auto& e : net.inserts) {
                    if (view.partition().rank_of(e.u) == self.rank()) {
                        post_edge_work(self, e);
                    }
                }
            },
            on_message, on_idle);
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
