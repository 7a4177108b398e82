#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/enumerate.hpp"
#include "core/runner.hpp"
#include "error.hpp"
#include "fault/fault_plan.hpp"
#include "net/metrics.hpp"
#include "stream/incremental.hpp"

namespace katric {

/// Which Engine query produced a Report.
enum class Query {
    kCount,      ///< Engine::count
    kLcc,        ///< Engine::lcc
    kEnumerate,  ///< Engine::enumerate
    kApprox,     ///< Engine::approx_count
    kStream,     ///< Engine::stream / StreamSession
};

[[nodiscard]] std::string query_name(Query query);

/// The one result type every Engine query returns: the exact count and paper
/// metrics (CountResult), kernel ops telemetry, and the query-specific
/// payloads, in place of the core layer's per-entry-point result structs
/// (CountResult / LccResult / AmqResult). Only the sections of the
/// producing query are populated; the rest stay at their defaults.
struct Report {
    Query query = Query::kCount;
    core::Algorithm algorithm = core::Algorithm::kDitric;

    /// The unified typed error (katric::Error): ok() on success. On error
    /// the run did not execute — all metrics are zero, `error.domain` says
    /// which subsystem rejected it (run precondition / serving admission),
    /// and `error.message` says why. Compares directly against the domain
    /// enums: `report.error == core::RunError::kSinkUnsupported`,
    /// `report.error == ServeError::kRejected`.
    Error error;

    /// The count and every paper metric (time breakdown, exact message and
    /// volume counters, OOM flag). For kApprox, triangles holds the rounded
    /// estimate; for kStream, the final count after the last batch.
    core::CountResult count;

    /// Kernel ops telemetry: elementary operations charged to the simulated
    /// machine (total over PEs / bottleneck PE) — the adaptive-dispatch
    /// counters the kernel subsystem exposes per run.
    std::uint64_t total_compute_ops = 0;
    std::uint64_t max_compute_ops = 0;

    /// Per-phase breakdown (fig7's sections): every superstep group of the
    /// query's simulated run, with summed time and — when the simulator
    /// recorded phase details (tracing/metrics on) — per-phase comm totals.
    /// Populated by Engine queries.
    std::vector<net::PhaseAgg> phases;

    /// True when this query skipped the replay of the engine's recorded
    /// preprocessing costs (Config::reuse_preprocessing without
    /// charge_reused_preprocessing): preprocessing_time and the
    /// ghost-exchange message counters are absent from this report. A query
    /// that replayed them is metric-identical to a one-shot run and reports
    /// false.
    bool reused_preprocessing = false;

    /// True when the query ran on the hardened message layer (Config::harden
    /// or a FaultPlan): every cross-rank payload carried checksum/sequence
    /// framing, and `faults` says what the layer detected and absorbed.
    bool hardened = false;
    /// True when recovery policy kDegrade converted an unrecoverable fault
    /// into an approximate answer: the result lives in estimated_triangles,
    /// count.triangles is NOT an exact count, and error is clear — the
    /// explicitly-marked estimate, never a silent one.
    bool degraded = false;
    /// Injection/detection/recovery counters for this query (all zero when
    /// not hardened, or hardened with nothing injected).
    fault::FaultStats faults;

    // --- kLcc ------------------------------------------------------------
    std::vector<std::uint64_t> delta;  ///< Δ(v) for every global vertex
    std::vector<double> lcc;           ///< LCC(v) = 2Δ(v)/(d_v(d_v−1))
    double postprocess_time = 0.0;     ///< simulated Δ-aggregation seconds

    // --- kEnumerate ------------------------------------------------------
    std::vector<core::Triangle> triangles;    ///< sorted, canonical
    std::vector<std::size_t> found_per_rank;  ///< emission counts

    // --- kApprox ---------------------------------------------------------
    double estimated_triangles = 0.0;
    std::uint64_t exact_type12 = 0;
    double estimated_type3 = 0.0;

    // --- kStream ---------------------------------------------------------
    core::CountResult initial;                ///< static count of the start graph
    std::vector<stream::BatchStats> batches;  ///< one entry per ingested batch
    double stream_seconds = 0.0;              ///< simulated stream time

    [[nodiscard]] bool ok() const noexcept { return error.ok() && !count.oom; }

    /// The single JSON emitter: one flat object with the query name, the
    /// algorithm, every CountResult metric, the ops telemetry, and the
    /// scalar query-specific fields (vectors are summarized, not dumped —
    /// except the per-phase breakdown, emitted as parallel arrays).
    [[nodiscard]] std::string to_json() const;

    /// The per-phase breakdown as an aligned text table (fig7's sections),
    /// one row per phase group; empty string when no phases were recorded.
    [[nodiscard]] std::string phase_table() const;
};

/// Flat-JSON array writer shared by Report::to_json, the benches, and CI
/// artifact emission — rows of scalar fields, no nesting, so results stay
/// machine-readable without a serialization dependency.
class JsonWriter {
public:
    JsonWriter& begin_row() {
        rows_.emplace_back();
        return *this;
    }

    JsonWriter& field(const std::string& key, const std::string& value);
    JsonWriter& field(const std::string& key, double value);
    JsonWriter& field(const std::string& key, std::uint64_t value);
    JsonWriter& field(const std::string& key, std::int64_t value);

    /// Array-valued fields (the per-phase breakdown and metric snapshots):
    /// one level of nesting — arrays of scalars, never arrays of objects, so
    /// the output stays trivially greppable and diffable.
    JsonWriter& field(const std::string& key, std::span<const std::string> values);
    JsonWriter& field(const std::string& key, std::span<const double> values);
    JsonWriter& field(const std::string& key, std::span<const std::uint64_t> values);

    /// Appends a Report's scalar fields onto the current row — the shared
    /// vocabulary every bench's --json artifact speaks.
    JsonWriter& report_fields(const Report& report);

    [[nodiscard]] std::string to_string() const;

    /// Writes the array; empty path is a no-op (JSON output not requested).
    void write(const std::string& path) const;

private:
    JsonWriter& raw(const std::string& key, std::string rendered);

    std::vector<std::vector<std::pair<std::string, std::string>>> rows_;
};

}  // namespace katric
