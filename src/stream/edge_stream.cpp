#include "stream/edge_stream.hpp"

#include <unordered_map>
#include <utility>

#include "graph/builder.hpp"
#include "util/assert.hpp"
#include "util/hash.hpp"
#include "util/random.hpp"

namespace katric::stream {

EdgeStream::EdgeStream(std::vector<EdgeEvent> events) : events_(std::move(events)) {
    for (std::size_t i = 1; i < events_.size(); ++i) {
        KATRIC_ASSERT_MSG(events_[i - 1].time <= events_[i].time,
                          "event times must be nondecreasing");
    }
}

void EdgeStream::push(const EdgeEvent& event) {
    KATRIC_ASSERT_MSG(events_.empty() || events_.back().time <= event.time,
                      "event times must be nondecreasing");
    events_.push_back(event);
}

std::vector<EdgeBatch> EdgeStream::batches_of(std::size_t events_per_batch) const {
    KATRIC_ASSERT(events_per_batch > 0);
    std::vector<EdgeBatch> batches;
    for (std::size_t begin = 0; begin < events_.size(); begin += events_per_batch) {
        const std::size_t end = std::min(begin + events_per_batch, events_.size());
        EdgeBatch batch;
        batch.events.assign(events_.begin() + static_cast<std::ptrdiff_t>(begin),
                            events_.begin() + static_cast<std::ptrdiff_t>(end));
        batch.begin_time = batch.events.front().time;
        batch.end_time = batch.events.back().time;
        batches.push_back(std::move(batch));
    }
    return batches;
}

std::vector<EdgeBatch> EdgeStream::batches_by_window(double window_seconds) const {
    KATRIC_ASSERT(window_seconds > 0.0);
    std::vector<EdgeBatch> batches;
    if (events_.empty()) { return batches; }
    const double origin = events_.front().time;
    std::size_t index = 0;
    while (index < events_.size()) {
        const auto window =
            static_cast<std::uint64_t>((events_[index].time - origin) / window_seconds);
        EdgeBatch batch;
        batch.begin_time = origin + static_cast<double>(window) * window_seconds;
        batch.end_time = batch.begin_time + window_seconds;
        // The division and the begin/end arithmetic round independently, so
        // the event can land at/after the computed end; slide the window
        // forward until it fits — this also guarantees loop progress.
        while (events_[index].time >= batch.end_time) {
            batch.begin_time = batch.end_time;
            batch.end_time += window_seconds;
        }
        while (index < events_.size() && events_[index].time < batch.end_time) {
            batch.events.push_back(events_[index]);
            ++index;
        }
        batches.push_back(std::move(batch));
    }
    return batches;
}

EdgeStream make_churn_stream(const CsrGraph& base, std::size_t num_events,
                             double delete_fraction, std::uint64_t seed,
                             double events_per_second) {
    KATRIC_ASSERT(delete_fraction >= 0.0 && delete_fraction <= 1.0);
    KATRIC_ASSERT(events_per_second > 0.0);
    const VertexId n = base.num_vertices();
    KATRIC_ASSERT_MSG(n >= 2, "churn stream needs at least two vertices");

    // Live-edge model: a vector for uniform sampling plus an index map for
    // O(1) swap-pop removal.
    std::vector<Edge> live;
    // katric-lint: allow(nondeterminism): keyed lookups and updates, never iterated
    std::unordered_map<std::pair<std::uint64_t, std::uint64_t>, std::size_t, PairHash>
        position;
    const auto initial_edges = graph::to_edge_list(base);
    for (const auto& edge : initial_edges.edges()) {
        position[{edge.u, edge.v}] = live.size();
        live.push_back(edge);
    }

    Xoshiro256 rng(seed);
    EdgeStream stream;
    const double dt = 1.0 / events_per_second;
    for (std::size_t i = 0; i < num_events; ++i) {
        const double time = static_cast<double>(i) * dt;
        if (!live.empty() && rng.next_bool(delete_fraction)) {
            const std::size_t pick = rng.next_bounded(live.size());
            const Edge edge = live[pick];
            live[pick] = live.back();
            position[{live[pick].u, live[pick].v}] = pick;
            live.pop_back();
            position.erase({edge.u, edge.v});
            stream.push({time, edge.u, edge.v, EventKind::kDelete});
        } else {
            VertexId u = rng.next_bounded(n);
            VertexId v = rng.next_bounded(n);
            if (u == v) { v = (v + 1) % n; }
            const Edge edge = Edge{u, v}.canonical();
            stream.push({time, edge.u, edge.v, EventKind::kInsert});
            if (!position.contains({edge.u, edge.v})) {
                position[{edge.u, edge.v}] = live.size();
                live.push_back(edge);
            }
        }
    }
    return stream;
}

}  // namespace katric::stream
