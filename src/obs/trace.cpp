#include "obs/trace.hpp"

#include <algorithm>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <string_view>
#include <utility>

namespace katric::obs {

namespace {

constexpr double kSecondsToUs = 1e6;

std::string phase_group_key(const std::string& name) {
    const std::size_t cut = name.find_first_of(":/");
    return cut == std::string::npos ? name : name.substr(0, cut);
}

void append_escaped(std::ostringstream& out, const std::string& s) {
    for (const char c : s) {
        switch (c) {
            case '"': out << "\\\""; break;
            case '\\': out << "\\\\"; break;
            case '\n': out << "\\n"; break;
            case '\t': out << "\\t"; break;
            case '\r': out << "\\r"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    out << "\\u" << std::hex << std::setw(4) << std::setfill('0')
                        << static_cast<int>(static_cast<unsigned char>(c)) << std::dec
                        << std::setfill(' ');
                } else {
                    out << c;
                }
        }
    }
}

/// One begin or end event, flattened for the global (ts, nesting) sort.
struct Event {
    double ts = 0.0;
    bool begin = false;
    double dur = 0.0;  ///< of the owning span, for nesting-order tie-breaks
    const TraceSpan* span = nullptr;
};

}  // namespace

void Tracer::record_query(const std::string& label, const net::Simulator& sim) {
    const util::MutexLock lock(mutex_);
    const double base = cursor_us_;
    const double query_us = sim.time() * kSecondsToUs;
    if (query_us > 0.0) {
        spans_.push_back(
            TraceSpan{label, "query", kSimulatedPid, 0, base, base + query_us, {}});
    }

    const auto phases = sim.phases();
    // Phase-group spans: contiguous runs of supersteps sharing a group key
    // ("preprocessing:assemble" + "preprocessing:exchange" + … fold into one
    // "preprocessing" band). A run of one superstep whose name already is
    // the key gets no extra band — the superstep span says it all.
    std::size_t i = 0;
    while (i < phases.size()) {
        const std::string key = phase_group_key(phases[i].name);
        std::size_t j = i + 1;
        while (j < phases.size() && phase_group_key(phases[j].name) == key) { ++j; }
        const double group_begin = base + phases[i].start_time * kSecondsToUs;
        const double group_end = base + phases[j - 1].end_time * kSecondsToUs;
        const bool redundant = j - i == 1 && phases[i].name == key;
        if (!redundant && group_end > group_begin) {
            spans_.push_back(
                TraceSpan{key, "phase", kSimulatedPid, 0, group_begin, group_end, {}});
        }
        i = j;
    }

    for (const auto& phase : phases) {
        const double begin = base + phase.start_time * kSecondsToUs;
        const double end = base + phase.end_time * kSecondsToUs;
        if (end <= begin) { continue; }
        spans_.push_back(
            TraceSpan{phase.name, "superstep", kSimulatedPid, 0, begin, end, {}});
        // Rank lanes (phase details recorded): each rank's busy window in
        // this superstep, annotated with the work it did there.
        for (std::size_t r = 0; r < phase.rank_busy_end.size(); ++r) {
            const double busy_end = base + phase.rank_busy_end[r] * kSecondsToUs;
            if (busy_end <= begin) { continue; }
            const auto tid = static_cast<std::uint32_t>(1 + r);
            max_tid_ = std::max(max_tid_, tid);
            TraceSpan span{phase.name, "rank", kSimulatedPid, tid, begin, busy_end, {}};
            if (r < phase.rank_delta.size()) {
                const auto& delta = phase.rank_delta[r];
                span.args.emplace_back("ops", delta.compute_ops);
                span.args.emplace_back("messages_sent", delta.messages_sent);
                span.args.emplace_back("words_sent", delta.words_sent);
            }
            spans_.push_back(std::move(span));
        }
    }

    cursor_us_ += query_us;
    record_host(label, phases);
    ++queries_;
}

void Tracer::record_host(const std::string& label,
                         std::span<const net::PhaseRecord> phases) {
    // Parents are pushed before their children and closed once the children
    // are laid out: at equal timestamps and durations the stable sort in
    // to_json keeps that order, so spans nest.
    const double begin = host_cursor_us_;
    const std::size_t query = spans_.size();
    spans_.push_back(TraceSpan{label, "host", kHostPid, 0, begin, begin, {}});
    double at = begin;
    for (const auto& phase : phases) {
        const std::size_t superstep = spans_.size();
        spans_.push_back(TraceSpan{phase.name, "host", kHostPid, 0, at, at, {}});
        for (const auto& [round, seconds] :
             {std::pair{"start", phase.host_start_seconds},
              std::pair{"deliver", phase.host_deliver_seconds},
              std::pair{"idle", phase.host_idle_seconds}}) {
            if (seconds <= 0.0) { continue; }
            const double end = at + seconds * kSecondsToUs;
            TraceSpan span{round, "host", kHostPid, 0, at, end, {}};
            if (std::string_view(round) == "deliver") {
                span.args.emplace_back("windows", phase.host_windows);
                span.args.emplace_back("fanned", phase.host_windows_fanned);
            }
            spans_.push_back(std::move(span));
            at = end;
        }
        if (at > spans_[superstep].begin_us) {
            spans_[superstep].end_us = at;
        } else {
            spans_.pop_back();
        }
    }
    if (at > begin) {
        spans_[query].end_us = at;
    } else {
        spans_.pop_back();
    }
    host_cursor_us_ = at;
}

std::string Tracer::to_json() const {
    const util::MutexLock lock(mutex_);
    std::vector<Event> events;
    events.reserve(spans_.size() * 2);
    for (const auto& span : spans_) {
        const double dur = span.end_us - span.begin_us;
        events.push_back(Event{span.begin_us, true, dur, &span});
        events.push_back(Event{span.end_us, false, dur, &span});
    }
    // Viewer-correct nesting on each lane: at equal timestamps, ends close
    // before begins open (sibling handover); simultaneous ends close
    // innermost-first (shortest span first); simultaneous begins open
    // outermost-first (longest span first). stable_sort keeps insertion
    // order as the final tie-break.
    std::stable_sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
        if (a.ts != b.ts) { return a.ts < b.ts; }
        if (a.begin != b.begin) { return !a.begin; }
        return a.begin ? a.dur > b.dur : a.dur < b.dur;
    });

    std::ostringstream out;
    out << std::setprecision(15);
    out << "{\"traceEvents\":[\n";
    out << R"({"ph":"M","pid":1,"tid":0,"name":"process_name","args":{"name":"katric"}})";
    out << ",\n"
        << R"({"ph":"M","pid":1,"tid":0,"name":"thread_name","args":{"name":"queries"}})";
    out << ",\n"
        << R"({"ph":"M","pid":2,"tid":0,"name":"process_name","args":{"name":"host"}})";
    out << ",\n"
        << R"({"ph":"M","pid":2,"tid":0,"name":"thread_name","args":{"name":"rounds"}})";
    for (std::uint32_t tid = 1; tid <= max_tid_; ++tid) {
        out << ",\n"
            << R"({"ph":"M","pid":1,"tid":)" << tid
            << R"(,"name":"thread_name","args":{"name":"rank )" << (tid - 1) << "\"}}";
    }
    for (const auto& event : events) {
        out << ",\n";
        if (event.begin) {
            out << R"({"ph":"B","pid":)" << event.span->pid << R"(,"tid":)"
                << event.span->tid << ",\"ts\":"
                << event.ts << ",\"name\":\"";
            append_escaped(out, event.span->name);
            out << "\",\"cat\":\"";
            append_escaped(out, event.span->cat);
            out << '"';
            if (!event.span->args.empty()) {
                out << ",\"args\":{";
                bool first = true;
                for (const auto& [key, value] : event.span->args) {
                    if (!first) { out << ','; }
                    first = false;
                    out << '"';
                    append_escaped(out, key);
                    out << "\":" << value;
                }
                out << '}';
            }
            out << '}';
        } else {
            out << R"({"ph":"E","pid":)" << event.span->pid << R"(,"tid":)"
                << event.span->tid << ",\"ts\":"
                << event.ts << '}';
        }
    }
    out << "\n]}\n";
    return out.str();
}

bool Tracer::write(const std::string& path) const {
    std::ofstream file(path);
    if (!file) { return false; }
    file << to_json();
    return static_cast<bool>(file);
}

}  // namespace katric::obs
