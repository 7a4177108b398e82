#include "core/exchange.hpp"

#include "core/hybrid.hpp"
#include "net/collectives.hpp"
#include "net/encoding.hpp"
#include "net/termination.hpp"
#include "util/assert.hpp"

namespace katric::core {

namespace {

/// The switches that tell the five exchange algorithms apart.
struct ExchangeMode {
    bool contract = false;  ///< CETRIC: expanded local phase, contracted global phase
    bool buffered = true;   ///< false = Alg. 2 with one send per cut edge (Fig. 2)
    bool indirect = false;  ///< grid-routed delivery (the "2" variants)
};

ExchangeMode exchange_mode(Algorithm algorithm) {
    switch (algorithm) {
        case Algorithm::kEdgeIteratorUnbuffered: return {.buffered = false};
        case Algorithm::kDitric: return {};
        case Algorithm::kDitric2: return {.indirect = true};
        case Algorithm::kCetric: return {.contract = true};
        case Algorithm::kCetric2: return {.contract = true, .indirect = true};
        default: break;
    }
    KATRIC_THROW(algorithm_name(algorithm)
                 << " is not a neighborhood-exchange algorithm");
}

/// Charges `ops` of perfectly parallelizable work across `threads` worker
/// threads (global-phase intersections executed by the worker pool, while
/// communication stays funneled through one thread and keeps its full
/// per-message cost — the bottleneck the paper's appendix observes).
void charge_parallel_ops(net::RankHandle& self, std::uint64_t ops, int threads) {
    if (threads <= 1) {
        self.charge_ops(ops);
    } else {
        self.charge_seconds(static_cast<double>(ops) * self.config().compute_op
                                / static_cast<double>(threads),
                            ops);
    }
}

/// Count-or-collect intersection of v's fixed row with A(u): with a sink,
/// enumerate closing vertices (via the shared per-thread scratch — no
/// per-call vector churn).
std::uint64_t intersect_for(net::RankHandle& self,
                            const seq::AdaptiveIntersect::FixedRow& row,
                            std::span<const VertexId> b, const TriangleSink* sink,
                            VertexId v, VertexId u, int parallel_threads) {
    if (sink == nullptr) {
        const auto r = row.count(b, u);
        charge_parallel_ops(self, r.ops, parallel_threads);
        return r.count;
    }
    auto& scratch = seq::collect_scratch();
    scratch.clear();
    const auto r = row.collect(b, scratch, u);
    charge_parallel_ops(self, r.ops, parallel_threads);
    for (const VertexId w : scratch) { (*sink)(self.rank(), v, u, w); }
    return r.count;
}

/// Wire format of an exchanged neighborhood: [v, A(v)…], or
/// [v, |A(v)|, packed…] with delta–varint compression.
void encode_neighborhood(net::RankHandle& self, VertexId v, std::span<const VertexId> a_v,
                         bool compress, net::WordVec& record) {
    record.push_back(v);
    if (compress) {
        record.push_back(a_v.size());
        net::encode_sorted(a_v, record);
        self.charge_ops(a_v.size());
    } else {
        record.insert(record.end(), a_v.begin(), a_v.end());
    }
}

/// Inverse of encode_neighborhood: A(v) of a received record (decoded into
/// `decoded` when compressed).
std::span<const VertexId> decode_neighborhood(net::RankHandle& self,
                                              std::span<const std::uint64_t> record,
                                              bool compress,
                                              std::vector<VertexId>& decoded) {
    KATRIC_ASSERT(!record.empty());
    if (!compress) { return record.subspan(1); }
    KATRIC_ASSERT(record.size() >= 2);
    const auto count = static_cast<std::size_t>(record[1]);
    net::decode_sorted(record.subspan(2), count, decoded);
    self.charge_ops(count);
    return decoded;
}

}  // namespace

std::vector<std::uint64_t> run_local_phase(net::Simulator& sim,
                                           const std::vector<DistGraph>& views,
                                           const AlgorithmOptions& options, bool expanded,
                                           const TriangleSink* sink) {
    std::vector<std::uint64_t> counts(sim.num_ranks(), 0);
    sim.run_phase("local", [&](net::RankHandle& self) {
        const Rank r = self.rank();
        const DistGraph& view = views[r];
        const seq::AdaptiveIntersect isect(options.intersect, view.hub_index(),
                                           obs::rank_sink(options.kernel_stats, r));
        ThreadBinner binner(options.threads);
        const bool hybrid = options.threads > 1 && sink == nullptr;
        // Summed locally and stored once: the ranks' counters share cache
        // lines, and the ranks of a start round run on different threads.
        std::uint64_t found = 0;
        auto process = [&](VertexId v, std::span<const VertexId> a_v) {
            const auto row_v = isect.fix(a_v, v);
            for (const VertexId u : a_v) {
                if (!expanded && !view.is_local(u)) { continue; }
                const auto a_u = view.a_set(u);
                if (hybrid) {
                    const auto res = row_v.count(a_u, u);
                    binner.add_task(res.ops);
                    found += res.count;
                } else {
                    found += intersect_for(self, row_v, a_u, sink, v, u, 1);
                }
            }
        };
        for (VertexId v = view.first_local(); v < view.first_local() + view.num_local();
             ++v) {
            process(v, view.out_neighbors(v));
        }
        if (expanded) {
            for (std::size_t g = 0; g < view.num_ghosts(); ++g) {
                process(view.ghost_id(g), view.ghost_out_neighbors(g));
            }
        }
        if (hybrid) {
            self.charge_seconds(static_cast<double>(binner.makespan_ops())
                                    * self.config().compute_op,
                                binner.total_ops());
        }
        counts[r] = found;
    }, {});
    return counts;
}

void charge_contraction(net::Simulator& sim, const std::vector<DistGraph>& views) {
    sim.run_phase("contraction", [&](net::RankHandle& self) {
        self.charge_ops(views[self.rank()].num_local_half_edges());
    }, {});
}

std::unique_ptr<net::Router> make_router(Rank num_ranks, bool indirect) {
    if (indirect) { return std::make_unique<net::GridRouter>(num_ranks); }
    return std::make_unique<net::DirectRouter>();
}

void reduce_counts(net::Simulator& sim, const std::vector<std::uint64_t>& local_counts,
                   const std::vector<std::uint64_t>& global_counts, CountResult& result) {
    const Rank p = sim.num_ranks();
    std::vector<std::uint64_t> per_rank(p, 0);
    for (Rank r = 0; r < p; ++r) { per_rank[r] = local_counts[r] + global_counts[r]; }
    result.triangles = net::allreduce_sum(sim, per_rank, "reduce");
    for (Rank r = 0; r < p; ++r) {
        result.local_phase_triangles += local_counts[r];
        result.global_phase_triangles += global_counts[r];
    }
    fill_metrics(sim, result);
}

CountResult run_exchange(net::Simulator& sim, const std::vector<DistGraph>& views,
                         const AlgorithmOptions& options, Algorithm algorithm,
                         const TriangleSink* sink) {
    const ExchangeMode mode = exchange_mode(algorithm);
    const Rank p = sim.num_ranks();
    KATRIC_ASSERT(views.size() == p);

    const auto local_counts = run_local_phase(sim, views, options, mode.contract, sink);
    if (mode.contract) { charge_contraction(sim, views); }

    // The rows the global phase ships and intersects: A(v), or Ac(v) once
    // contracted (Lemma 1: the cut graph's triangles are the type-3 ones).
    const auto row = [&](const DistGraph& view, VertexId v) {
        return mode.contract ? view.contracted_out_neighbors(v) : view.out_neighbors(v);
    };
    const auto router = make_router(p, mode.indirect);
    auto queues = make_queues(views, options, *router, kTagCount);

    // Optional distributed termination detection: logical records are
    // counted once when posted and once when delivered at their final PE, so
    // anything buffered (at the sender or at a proxy) keeps the global
    // counters unbalanced until it really arrives.
    net::TerminationDetector detector(p);
    const bool detect = options.detect_termination;
    const bool compress = options.compress_neighborhoods;

    std::vector<std::uint64_t> global_counts(p, 0);
    // Per rank: the handlers of one delivery window may run concurrently.
    std::vector<std::vector<VertexId>> decoded(p);
    auto deliver = [&](net::RankHandle& self, std::span<const std::uint64_t> record) {
        const Rank r = self.rank();
        if (detect) { detector.note_received(r); }
        const DistGraph& view = views[r];
        const seq::AdaptiveIntersect isect(options.intersect, view.hub_index(),
                                           obs::rank_sink(options.kernel_stats, r));
        const auto a_v = decode_neighborhood(self, record, compress, decoded[r]);
        const VertexId v = record[0];
        const auto row_v = isect.fix(a_v, v);
        std::uint64_t found = 0;  // stored once per record: see run_local_phase
        for (const VertexId u : a_v) {
            if (!view.is_local(u)) { continue; }
            found += intersect_for(self, row_v, row(view, u), sink, v, u, options.threads);
        }
        global_counts[r] += found;
    };

    sim.run_phase(
        "global",
        [&](net::RankHandle& self) {
            const Rank r = self.rank();
            const DistGraph& view = views[r];
            ship_neighborhoods(
                self, view, [&](VertexId v) { return row(view, v); },
                [&](VertexId v, std::span<const VertexId> a_v, net::WordVec& record) {
                    encode_neighborhood(self, v, a_v, compress, record);
                },
                [&](Rank owner, const net::WordVec& record) {
                    if (detect) { detector.note_sent(r); }
                    if (mode.buffered) {
                        queues[r].post(self, owner, record);
                    } else {
                        // The Fig. 2 "no buffering" series is deliberately
                        // unbuffered: one message per record.
                        // katric-lint: allow(raw-send): unbuffered by design
                        self.send(owner, record, kTagCount);
                    }
                });
        },
        [&](net::RankHandle& self, Rank src, int tag,
            std::span<const std::uint64_t> payload) {
            if (detect && detector.handle(self, src, tag, payload)) { return; }
            KATRIC_ASSERT(tag == kTagCount);
            if (mode.buffered) {
                queues[self.rank()].handle(self, payload, deliver);
            } else {
                deliver(self, payload);
            }
        },
        [&](net::RankHandle& self) {
            if (mode.buffered) { queues[self.rank()].flush(self); }
            if (detect) { detector.on_idle(self); }
        });
    if (detect) {
        KATRIC_ASSERT_MSG(detector.all_terminated(),
                          "global phase drained without a termination verdict");
    }

    CountResult result;
    reduce_counts(sim, local_counts, global_counts, result);
    return result;
}

}  // namespace katric::core
