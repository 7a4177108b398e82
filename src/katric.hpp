#pragma once

/// Umbrella header for the katric library — a from-scratch reproduction of
/// "Engineering a Distributed-Memory Triangle Counting Algorithm"
/// (Sanders & Uhl, IPDPS 2023) on a simulated message-passing machine.
///
/// The primary API is the session facade: build the distributed state once,
/// compose queries against it, one configuration surface, one result type.
///
///   katric::Config config = katric::Config::preset("paper-cetric");
///   katric::Engine engine(graph, config);   // partition + per-rank views, once
///   katric::Report count = engine.count();  // exact count + paper metrics
///   katric::Report lcc = engine.lcc();      // same built state, no rebuild
///   katric::Report est = engine.approx_count();
///   auto session = engine.open_stream();    // promote to a dynamic session
///
///   * Engine  — owns the expensive build; queries: count / lcc / enumerate /
///               approx_count / open_stream / stream         (engine.hpp)
///   * Config  — one config for everything, CLI round-trip via from_args /
///               from_flags / to_flags, named presets         (config.hpp)
///   * Report  — unified result: count, LCC, enumeration, approximation,
///               streaming + paper metrics + ops telemetry + one JSON
///               emitter (Report::to_json / JsonWriter)       (report.hpp)
///   * obs     — observability: Chrome-trace span export (--trace-out),
///               metrics registry with query-latency p50/p99 and kernel
///               dispatch mix (--metrics)                     (obs/)
///
/// The layer below the facade stays public: graph::distribute, then
/// core::run_preprocessing once per view set, then
/// core::dispatch_algorithm / compute_distributed_lcc /
/// count_triangles_cetric_amq over those views, which only charge;
/// gen::* / graph::read_* — inputs; net::NetworkConfig — machine model.

#include "amq/bloom.hpp"
#include "config.hpp"
#include "engine.hpp"
#include "report.hpp"
#include "core/approx.hpp"
#include "core/dist_lcc.hpp"
#include "core/enumerate.hpp"
#include "core/runner.hpp"
#include "gen/gnm.hpp"
#include "gen/grid.hpp"
#include "gen/proxies.hpp"
#include "gen/rgg2d.hpp"
#include "gen/rhg.hpp"
#include "gen/rmat.hpp"
#include "graph/builder.hpp"
#include "graph/graph_stats.hpp"
#include "graph/io.hpp"
#include "graph/load_balance.hpp"
#include "graph/permutation.hpp"
#include "net/network_config.hpp"
#include "net/termination.hpp"
#include "obs/observability.hpp"
#include "seq/edge_iterator.hpp"
#include "seq/lcc.hpp"
#include "stream/edge_stream.hpp"
#include "stream/stream_runner.hpp"
