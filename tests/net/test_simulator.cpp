#include "net/simulator.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <optional>
#include <string>
#include <vector>

#include "core/algorithm.hpp"
#include "fault/injector.hpp"
#include "net/indirection.hpp"
#include "net/message_queue.hpp"
#include "report.hpp"
#include "support/expect_count.hpp"

namespace katric::net {
namespace {

TEST(Simulator, DeliversAllMessagesOnce) {
    Simulator sim(4, NetworkConfig{});
    std::vector<int> received(4, 0);
    sim.run_phase(
        "test",
        [](RankHandle& self) {
            for (Rank dest = 0; dest < self.size(); ++dest) {
                if (dest != self.rank()) { self.send(dest, WordVec{self.rank()}); }
            }
        },
        [&](RankHandle& self, Rank src, int /*tag*/, std::span<const std::uint64_t> payload) {
            ASSERT_EQ(payload.size(), 1u);
            EXPECT_EQ(payload[0], src);
            ++received[self.rank()];
        });
    for (int count : received) { EXPECT_EQ(count, 3); }
}

TEST(Simulator, MetricsCountMessagesAndWords) {
    Simulator sim(3, NetworkConfig{});
    sim.run_phase(
        "test",
        [](RankHandle& self) {
            if (self.rank() == 0) {
                self.send(1, WordVec{1, 2, 3});
                self.send(2, WordVec{4});
            }
        },
        [](RankHandle&, Rank, int, std::span<const std::uint64_t>) {});
    const auto metrics = sim.rank_metrics();
    EXPECT_EQ(metrics[0].messages_sent, 2u);
    EXPECT_EQ(metrics[0].words_sent, 4u);
    EXPECT_EQ(metrics[1].messages_received, 1u);
    EXPECT_EQ(metrics[1].words_received, 3u);
    EXPECT_EQ(metrics[2].words_received, 1u);
    EXPECT_EQ(metrics[0].messages_received, 0u);
}

TEST(Simulator, SelfSendIsFreeButDelivered) {
    Simulator sim(2, NetworkConfig{});
    int delivered = 0;
    sim.run_phase(
        "test", [](RankHandle& self) { self.send(self.rank(), WordVec{7}); },
        [&](RankHandle& self, Rank src, int, std::span<const std::uint64_t> payload) {
            EXPECT_EQ(src, self.rank());
            EXPECT_EQ(payload[0], 7u);
            ++delivered;
        });
    EXPECT_EQ(delivered, 2);
    EXPECT_EQ(sim.rank_metrics()[0].messages_sent, 0u);
    EXPECT_EQ(sim.rank_metrics()[0].words_sent, 0u);
}

TEST(Simulator, PerChannelFifoOrder) {
    Simulator sim(2, NetworkConfig{});
    std::vector<std::uint64_t> order;
    sim.run_phase(
        "test",
        [](RankHandle& self) {
            if (self.rank() == 0) {
                for (std::uint64_t i = 0; i < 10; ++i) { self.send(1, WordVec{i}); }
            }
        },
        [&](RankHandle&, Rank, int, std::span<const std::uint64_t> payload) {
            order.push_back(payload[0]);
        });
    ASSERT_EQ(order.size(), 10u);
    for (std::uint64_t i = 0; i < 10; ++i) { EXPECT_EQ(order[i], i); }
}

TEST(Simulator, HandlersCanSendReplies) {
    Simulator sim(2, NetworkConfig{});
    bool got_reply = false;
    sim.run_phase(
        "test",
        [](RankHandle& self) {
            if (self.rank() == 0) { self.send(1, WordVec{1}, /*tag=*/1); }
        },
        [&](RankHandle& self, Rank src, int tag, std::span<const std::uint64_t>) {
            if (tag == 1) {
                self.send(src, WordVec{2}, /*tag=*/2);
            } else {
                EXPECT_EQ(tag, 2);
                got_reply = true;
            }
        });
    EXPECT_TRUE(got_reply);
}

TEST(Simulator, AlphaBetaTimeModel) {
    NetworkConfig cfg;
    cfg.alpha = 1e-6;
    cfg.beta = 1e-9;
    Simulator sim(2, cfg);
    const double t = sim.run_phase(
        "test",
        [](RankHandle& self) {
            if (self.rank() == 0) { self.send(1, WordVec(1000, 0)); }
        },
        [](RankHandle&, Rank, int, std::span<const std::uint64_t>) {});
    // Sender injection + receiver handling + closing barrier:
    // 2·(α + β·1000) + α·log₂2.
    const double expected = 2 * (1e-6 + 1e-9 * 1000) + 1e-6;
    EXPECT_NEAR(t, expected, 1e-12);
}

TEST(Simulator, AllToOneHotspotSerializesAtReceiver) {
    // The paper's motivating example for indirection: p−1 unit messages to
    // PE 0 take ≈ (p−1)(α+β) at the receiver.
    NetworkConfig cfg;
    cfg.alpha = 1e-6;
    cfg.beta = 0.0;
    const Rank p = 64;
    Simulator sim(p, cfg);
    const double t = sim.run_phase(
        "test",
        [](RankHandle& self) {
            if (self.rank() != 0) { self.send(0, WordVec{1}); }
        },
        [](RankHandle&, Rank, int, std::span<const std::uint64_t>) {});
    EXPECT_GT(t, (p - 1) * cfg.alpha);
    EXPECT_LT(t, (p + 8) * cfg.alpha + cfg.alpha * 6);
}

TEST(Simulator, ChargeOpsAdvancesClockAndMetric) {
    NetworkConfig cfg;
    cfg.compute_op = 1e-9;
    Simulator sim(1, cfg);
    sim.run_phase(
        "test",
        [](RankHandle& self) {
            EXPECT_DOUBLE_EQ(self.now(), 0.0);
            self.charge_ops(1000);
            EXPECT_NEAR(self.now(), 1e-6, 1e-15);
            self.charge_seconds(0.5);
            EXPECT_NEAR(self.now(), 0.5 + 1e-6, 1e-12);
        },
        {});
    EXPECT_EQ(sim.rank_metrics()[0].compute_ops, 1000u);
}

TEST(Simulator, PhaseTimesAccumulateMonotonically) {
    Simulator sim(2, NetworkConfig{});
    sim.run_phase("a", [](RankHandle& self) { self.charge_seconds(1.0); }, {});
    sim.run_phase("b", [](RankHandle& self) { self.charge_seconds(2.0); }, {});
    ASSERT_EQ(sim.phases().size(), 2u);
    EXPECT_GE(sim.phases()[0].duration(), 1.0);
    EXPECT_GE(sim.phases()[1].duration(), 2.0);
    EXPECT_NEAR(sim.time(), sim.phases()[0].duration() + sim.phases()[1].duration(),
                1e-12);
    EXPECT_DOUBLE_EQ(phase_time(sim.phases(), "a"), sim.phases()[0].duration());
}

TEST(Simulator, IdleHookRunsUntilQuiescent) {
    // Rank 0 flushes one pending message only when idle; the phase must not
    // terminate before it is delivered.
    Simulator sim(2, NetworkConfig{});
    bool pending = true;
    bool delivered = false;
    sim.run_phase(
        "test", [](RankHandle&) {},
        [&](RankHandle&, Rank, int, std::span<const std::uint64_t>) { delivered = true; },
        [&](RankHandle& self) {
            if (self.rank() == 0 && pending) {
                pending = false;
                self.send(1, WordVec{1});
            }
        });
    EXPECT_TRUE(delivered);
}

TEST(Simulator, OomErrorCarriesRankAndSize) {
    NetworkConfig cfg;
    cfg.memory_limit_words = 100;
    Simulator sim(2, cfg);
    try {
        sim.run_phase(
            "test",
            [](RankHandle& self) {
                if (self.rank() == 1) { self.note_buffered_words(101); }
            },
            {});
        FAIL() << "expected OomError";
    } catch (const OomError& e) {
        EXPECT_EQ(e.rank(), 1u);
        EXPECT_EQ(e.words(), 101u);
    }
}

TEST(Simulator, PeakBufferHighWaterMark) {
    Simulator sim(1, NetworkConfig{});
    sim.run_phase(
        "test",
        [](RankHandle& self) {
            self.note_buffered_words(10);
            self.note_buffered_words(500);
            self.note_buffered_words(20);
        },
        {});
    EXPECT_EQ(sim.rank_metrics()[0].peak_buffered_words, 500u);
}

// --- parallel start rounds ------------------------------------------------
//
// A start round runs its ranks on a RankPool; the sends merge in (rank,
// local order) afterwards. Everything observable must equal the sequential
// run: a 0-helper pool runs every round inline, a 3-helper pool fans out
// whatever the host's core count.

/// Everything a run leaves observable, for comparing host thread counts.
struct Trail {
    /// Per delivery: dest, src, tag, the receiver's clock bits, payload.
    std::vector<std::vector<std::uint64_t>> deliveries;
    std::vector<RankMetrics> metrics;
    std::vector<double> busy_end;
    std::uint64_t events = 0;
    double time = 0.0;
    fault::FaultStats faults;

    friend bool operator==(const Trail&, const Trail&) = default;
};

constexpr Rank kRanks = 16;

/// One superstep in which every rank first sends to rank 0 (equal arrival
/// times: only the sequence numbers order them), then to every rank (itself
/// included) after an uneven local phase, plus a size-only send; handlers
/// reply to tag-0 messages, so handler staging is covered too.
Trail all_to_all_trail(RankPool& pool, const fault::FaultInjector* injector) {
    Simulator sim(kRanks, NetworkConfig{}, pool);
    sim.record_phase_details(true);
    Trail trail;
    if (injector != nullptr) {
        HardenOptions harden;
        harden.injector = injector;
        harden.stats = &trail.faults;
        harden.max_retries = 16;
        sim.harden(harden);
    }
    sim.run_phase(
        "all-to-all",
        [](RankHandle& self) {
            const Rank r = self.rank();
            self.send(0, WordVec{r}, 5);
            self.charge_ops(1000 * (r % 5 + 1));
            for (Rank d = 0; d < self.size(); ++d) {
                self.send(d, WordVec(1 + (r * 7 + d) % 9, r * 100 + d),
                          static_cast<int>(d % 3));
                self.charge_ops(r + d);
            }
            self.send_sized((r + 1) % self.size(), 5 + r, 7);
        },
        [&](RankHandle& self, Rank src, int tag, std::span<const std::uint64_t> payload) {
            std::vector<std::uint64_t> row{self.rank(), src,
                                           static_cast<std::uint64_t>(tag),
                                           std::bit_cast<std::uint64_t>(self.now())};
            row.insert(row.end(), payload.begin(), payload.end());
            trail.deliveries.push_back(std::move(row));
            if (tag == 0 && src != self.rank()) { self.send(src, WordVec{src, 1, 2}, 9); }
        });
    trail.metrics.assign(sim.rank_metrics().begin(), sim.rank_metrics().end());
    trail.busy_end = sim.phases().back().rank_busy_end;
    trail.events = sim.events_scheduled();
    trail.time = sim.time();
    return trail;
}

TEST(ParallelStartRound, AllToAllMatchesSequentialOnPlainMachine) {
    RankPool inline_pool(0);
    RankPool helpers(3);
    ASSERT_FALSE(inline_pool.fans_out(kRanks));
    ASSERT_TRUE(helpers.fans_out(kRanks));
    const Trail sequential = all_to_all_trail(inline_pool, nullptr);
    // 16 × (1 tied send + 16 payload sends + 1 size-only send), plus one
    // reply per cross-rank tag-0 message: 16 senders × 6 tag-0 destinations
    // − 6 self.
    EXPECT_EQ(sequential.deliveries.size(), 16u * 18u + 90u);
    for (int run = 0; run < 3; ++run) {
        EXPECT_TRUE(all_to_all_trail(helpers, nullptr) == sequential) << "run " << run;
    }
}

TEST(ParallelStartRound, AllToAllMatchesSequentialUnderInjectedFaults) {
    const fault::FaultInjector injector(
        fault::FaultPlan::parse("seed=11;drop=0.05;dup=0.05;reorder=0.1;bitflip=0.05"));
    RankPool inline_pool(0);
    RankPool helpers(3);
    const Trail sequential = all_to_all_trail(inline_pool, &injector);
    // The schedule really exercised every fault the merge must replay.
    EXPECT_GT(sequential.faults.injected_drop, 0u);
    EXPECT_GT(sequential.faults.injected_duplicate, 0u);
    EXPECT_GT(sequential.faults.injected_reorder, 0u);
    EXPECT_GT(sequential.faults.injected_bitflip, 0u);
    EXPECT_GT(sequential.faults.retransmits, 0u);
    for (int run = 0; run < 3; ++run) {
        EXPECT_TRUE(all_to_all_trail(helpers, &injector) == sequential) << "run " << run;
    }
}

/// The Report fields Engine::run_query fills for a query that ran out of
/// memory.
Report oom_report(const Simulator& sim) {
    Report report;
    report.count.oom = true;
    core::fill_metrics(sim, report.count);
    for (const auto& metrics : sim.rank_metrics()) {
        report.total_compute_ops += metrics.compute_ops;
        report.max_compute_ops = std::max(report.max_compute_ops, metrics.compute_ops);
    }
    report.phases = aggregate_phase_times(sim.phases());
    return report;
}

struct OomOutcome {
    Rank rank = 0;
    std::uint64_t words = 0;
    Report report;
    std::vector<RankMetrics> metrics;
    std::uint64_t events = 0;
};

/// A warm-up superstep, then a start round in which ranks 5 and 11 blow
/// their memory budget after sending: rank 5's error must win, and ranks
/// past it must look never started.
OomOutcome oom_outcome(RankPool& pool) {
    NetworkConfig config;
    config.memory_limit_words = 100;
    Simulator sim(kRanks, config, pool);
    sim.record_phase_details(true);
    const auto exchange = [](RankHandle& self) {
        const Rank r = self.rank();
        self.charge_ops(10 * (r + 1));
        for (Rank d = 0; d < self.size(); ++d) { self.send(d, WordVec(3, r)); }
    };
    const auto ignore = [](RankHandle&, Rank, int, std::span<const std::uint64_t>) {};
    sim.run_phase("warm-up", exchange, ignore);
    OomOutcome outcome;
    try {
        sim.run_phase(
            "oom",
            [&](RankHandle& self) {
                exchange(self);
                const Rank r = self.rank();
                self.note_buffered_words(r == 5 || r == 11 ? 1000 + r : 10 + r);
                self.charge_ops(7);
            },
            ignore);
        ADD_FAILURE() << "expected OomError";
    } catch (const OomError& e) {
        outcome.rank = e.rank();
        outcome.words = e.words();
    }
    outcome.report = oom_report(sim);
    outcome.metrics.assign(sim.rank_metrics().begin(), sim.rank_metrics().end());
    outcome.events = sim.events_scheduled();
    return outcome;
}

TEST(ParallelStartRound, OomSurfacesAsLowestRankWithSequentialMetrics) {
    RankPool inline_pool(0);
    RankPool helpers(3);
    const OomOutcome sequential = oom_outcome(inline_pool);
    EXPECT_EQ(sequential.rank, 5u);
    EXPECT_EQ(sequential.words, 1005u);
    // Rank 5 sent before it threw; rank 6 never started.
    EXPECT_EQ(sequential.metrics[5].messages_sent, 2 * (kRanks - 1));
    EXPECT_EQ(sequential.metrics[6].messages_sent, kRanks - 1);
    EXPECT_EQ(sequential.metrics[5].peak_buffered_words, 1005u);
    EXPECT_EQ(sequential.metrics[11].peak_buffered_words, 0u);
    for (int run = 0; run < 3; ++run) {
        const OomOutcome parallel = oom_outcome(helpers);
        const std::string what = "run " + std::to_string(run);
        EXPECT_EQ(parallel.rank, sequential.rank) << what;
        EXPECT_EQ(parallel.words, sequential.words) << what;
        EXPECT_TRUE(parallel.metrics == sequential.metrics) << what;
        EXPECT_EQ(parallel.events, sequential.events) << what;
        test::expect_identical_reports(parallel.report, sequential.report, what);
    }
}

TEST(ParallelStartRound, RecordsHostSecondsPerRound) {
    RankPool helpers(3);
    Simulator sim(4, NetworkConfig{}, helpers);
    sim.run_phase(
        "timed", [](RankHandle& self) { self.send((self.rank() + 1) % 4, WordVec{1}); },
        [](RankHandle&, Rank, int, std::span<const std::uint64_t>) {},
        [](RankHandle&) {});
    const PhaseRecord& phase = sim.phases().back();
    EXPECT_GT(phase.host_start_seconds, 0.0);
    EXPECT_GT(phase.host_deliver_seconds, 0.0);
    EXPECT_GT(phase.host_idle_seconds, 0.0);
}

// --- parallel delivery windows ---------------------------------------------
//
// A delivery window for two ranks or more that carries at least
// kFanOutWindowWords (64 Ki) payload words fans out to the pool: each rank
// delivers its share of the window on its stripe's thread, and the staged
// sends merge in event order. Handlers here log per rank — the ranks of a
// fanned-out window run concurrently.

/// A run's trail plus its delivery-window counts, summed over supersteps.
/// Here `trail.deliveries[r]` is rank r's own log, rows flattened.
struct WindowedRun {
    Trail trail;
    std::uint64_t windows = 0;
    std::uint64_t fanned = 0;
};

void finish(WindowedRun& run, const Simulator& sim) {
    run.trail.metrics.assign(sim.rank_metrics().begin(), sim.rank_metrics().end());
    run.trail.busy_end = sim.phases().back().rank_busy_end;
    run.trail.events = sim.events_scheduled();
    run.trail.time = sim.time();
    for (const PhaseRecord& phase : sim.phases()) {
        run.windows += phase.host_windows;
        run.fanned += phase.host_windows_fanned;
    }
}

/// Appends [src, tag, the receiver's clock bits, payload size] to the
/// receiving rank's log.
void log_message(Trail& trail, const RankHandle& self, Rank src, int tag,
                 std::span<const std::uint64_t> payload) {
    auto& log = trail.deliveries[self.rank()];
    log.insert(log.end(), {src, static_cast<std::uint64_t>(tag),
                           std::bit_cast<std::uint64_t>(self.now()), payload.size()});
}

constexpr int kTagQueue = 3;
constexpr std::uint64_t kRecordWords = 3000;

/// Every rank posts two 3000-word records to every other rank through
/// grid-routed message queues: proxies re-post the records in transit and
/// flush past the threshold from inside their handlers, the final
/// destination answers each first record with a short reply through its
/// queue, and the idle hook flushes what is left.
WindowedRun queue_run(RankPool& pool, bool harden) {
    Simulator sim(kRanks, NetworkConfig{}, pool);
    sim.record_phase_details(true);
    WindowedRun run;
    run.trail.deliveries.resize(kRanks);
    if (harden) {
        HardenOptions options;
        options.stats = &run.trail.faults;
        sim.harden(options);
    }
    const GridRouter router(kRanks);
    std::vector<MessageQueue> queues;
    for (Rank r = 0; r < kRanks; ++r) { queues.emplace_back(20000, router, kTagQueue); }
    // Record: [kind (0 = data, 1 = reply), origin, index, filler…].
    const auto deliver = [&](RankHandle& self, std::span<const std::uint64_t> record) {
        auto& log = run.trail.deliveries[self.rank()];
        log.push_back(std::bit_cast<std::uint64_t>(self.now()));
        log.insert(log.end(), record.begin(), record.begin() + 3);
        log.push_back(record.back());
        if (record[0] == 0 && record[2] == 0) {
            const WordVec reply{1, self.rank(), 0, record.size()};
            queues[self.rank()].post(self, static_cast<Rank>(record[1]), reply);
        }
    };
    sim.run_phase(
        "queue",
        [&](RankHandle& self) {
            const Rank r = self.rank();
            self.charge_ops(100 * (r % 3));
            for (std::uint64_t index = 0; index < 2; ++index) {
                for (Rank offset = 1; offset < kRanks; ++offset) {
                    const auto dest = static_cast<Rank>((r + offset) % kRanks);
                    WordVec record(kRecordWords + (r * 7 + dest) % 50, r * 1000 + dest);
                    record[0] = 0;
                    record[1] = r;
                    record[2] = index;
                    queues[r].post(self, dest, record);
                }
            }
        },
        [&](RankHandle& self, Rank src, int tag, std::span<const std::uint64_t> payload) {
            log_message(run.trail, self, src, tag, payload);
            queues[self.rank()].handle(self, payload, deliver);
        },
        [&](RankHandle& self) { queues[self.rank()].flush(self); });
    finish(run, sim);
    return run;
}

TEST(ParallelDeliveryWindow, GridQueueMatchesSequential) {
    RankPool inline_pool(0);
    RankPool helpers(3);
    const WindowedRun sequential = queue_run(inline_pool, /*harden=*/false);
    EXPECT_EQ(sequential.fanned, 0u);
    for (int run = 0; run < 3; ++run) {
        const WindowedRun parallel = queue_run(helpers, /*harden=*/false);
        EXPECT_GT(parallel.fanned, 0u) << "run " << run;
        EXPECT_EQ(parallel.windows, sequential.windows) << "run " << run;
        EXPECT_TRUE(parallel.trail == sequential.trail) << "run " << run;
    }
}

TEST(ParallelDeliveryWindow, HardenedFramingMatchesSequential) {
    RankPool inline_pool(0);
    RankPool helpers(3);
    const WindowedRun sequential = queue_run(inline_pool, /*harden=*/true);
    EXPECT_GT(sequential.trail.faults.frames_sent, 0u);
    EXPECT_EQ(sequential.trail.faults.retransmits, 0u);
    // Framing costs header words on the wire: a different machine than the
    // plain run, frame for frame the same with and without helpers.
    EXPECT_FALSE(sequential.trail == queue_run(inline_pool, /*harden=*/false).trail);
    for (int run = 0; run < 3; ++run) {
        const WindowedRun parallel = queue_run(helpers, /*harden=*/true);
        EXPECT_GT(parallel.fanned, 0u) << "run " << run;
        EXPECT_EQ(parallel.windows, sequential.windows) << "run " << run;
        EXPECT_TRUE(parallel.trail == sequential.trail) << "run " << run;
    }
}

/// Every rank sends one 8 Ki-word message to its predecessor at the same
/// simulated time — one window of 128 Ki words — and each handler answers
/// rank 0 at once: fifteen replies tied in arrival time, which only their
/// sequence numbers order (rank 0's own answer is a free self-send).
WindowedRun tied_replies_run(RankPool& pool) {
    Simulator sim(kRanks, NetworkConfig{}, pool);
    sim.record_phase_details(true);
    WindowedRun run;
    run.trail.deliveries.resize(kRanks);
    sim.run_phase(
        "tied-replies",
        [](RankHandle& self) {
            const Rank p = self.size();
            self.send((self.rank() + p - 1) % p, WordVec(8 * 1024, self.rank()));
        },
        [&](RankHandle& self, Rank src, int tag, std::span<const std::uint64_t> payload) {
            log_message(run.trail, self, src, tag, payload);
            if (payload.size() > 1) { self.send(0, WordVec{self.rank()}, 1); }
        });
    finish(run, sim);
    return run;
}

TEST(ParallelDeliveryWindow, TiedRepliesMergeInEventOrder) {
    RankPool inline_pool(0);
    RankPool helpers(3);
    const WindowedRun sequential = tied_replies_run(inline_pool);
    // Rank 0 hears the tied replies in the order of the deliveries that
    // sent them, and those follow their senders: rank 0's message (lowest
    // sequence number) reached rank 15 first, rank 1's reached rank 0, …
    std::vector<std::uint64_t> reply_sources;
    const auto& log = sequential.trail.deliveries[0];
    for (std::size_t row = 0; row < log.size(); row += 4) {
        if (log[row + 1] == 1) { reply_sources.push_back(log[row]); }
    }
    std::vector<std::uint64_t> expected{0, kRanks - 1};
    for (Rank r = 1; r + 1 < kRanks; ++r) { expected.push_back(r); }
    EXPECT_EQ(reply_sources, expected);
    for (int run = 0; run < 3; ++run) {
        const WindowedRun parallel = tied_replies_run(helpers);
        EXPECT_EQ(parallel.fanned, 1u) << "run " << run;
        EXPECT_TRUE(parallel.trail == sequential.trail) << "run " << run;
    }
}

/// Every rank sends one 66 Ki-word message to its successor at the same
/// simulated time, through an armed injector that duplicates and flips bits
/// in some frames; each handler answers the sender with one word. Every
/// event is a window of its own, and each carries more payload than the
/// fan-out threshold.
WindowedRun injected_run(RankPool& pool, const fault::FaultInjector& injector) {
    Simulator sim(kRanks, NetworkConfig{}, pool);
    sim.record_phase_details(true);
    WindowedRun run;
    run.trail.deliveries.resize(kRanks);
    HardenOptions options;
    options.injector = &injector;
    options.stats = &run.trail.faults;
    options.max_retries = 16;
    sim.harden(options);
    sim.run_phase(
        "injected",
        [](RankHandle& self) {
            const Rank p = self.size();
            self.send((self.rank() + 1) % p, WordVec(66 * 1024, self.rank()));
        },
        [&](RankHandle& self, Rank src, int tag, std::span<const std::uint64_t> payload) {
            log_message(run.trail, self, src, tag, payload);
            if (payload.size() > 1) { self.send(src, WordVec{self.rank()}, 1); }
        });
    finish(run, sim);
    return run;
}

TEST(ParallelDeliveryWindow, InjectedFaultsDeliverOneEventAtATime) {
    const fault::FaultInjector injector(
        fault::FaultPlan::parse("seed=5;dup=0.3;bitflip=0.3"));
    RankPool inline_pool(0);
    RankPool helpers(3);
    const WindowedRun sequential = injected_run(inline_pool, injector);
    // Duplicates and corrupt frames of the large messages were delivered,
    // suppressed or re-sent from inside the delivery.
    EXPECT_GT(sequential.trail.faults.injected_duplicate, 0u);
    EXPECT_GT(sequential.trail.faults.duplicates_suppressed, 0u);
    EXPECT_GT(sequential.trail.faults.injected_bitflip, 0u);
    EXPECT_GT(sequential.trail.faults.corrupt_detected, 0u);
    EXPECT_GT(sequential.trail.faults.retransmits, 0u);
    for (int run = 0; run < 3; ++run) {
        const WindowedRun parallel = injected_run(helpers, injector);
        EXPECT_EQ(parallel.fanned, 0u) << "run " << run;
        EXPECT_EQ(parallel.windows, sequential.windows) << "run " << run;
        EXPECT_TRUE(parallel.trail == sequential.trail) << "run " << run;
    }
}

/// FNV-1a over the integer record of a run: every rank's metrics, the
/// number of events scheduled and every fault counter. Received words count
/// the frames as delivered, so a truncated frame's length shows here.
std::uint64_t replay_digest(const Trail& trail) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    const auto mix = [&](std::uint64_t word) {
        for (int byte = 0; byte < 8; ++byte) {
            h = (h ^ ((word >> (8 * byte)) & 0xff)) * 0x100000001b3ULL;
        }
    };
    for (const RankMetrics& m : trail.metrics) {
        for (const std::uint64_t word :
             {m.messages_sent, m.messages_received, m.words_sent, m.words_received,
              m.compute_ops, m.peak_buffered_words}) {
            mix(word);
        }
    }
    mix(trail.events);
    const fault::FaultStats& f = trail.faults;
    for (const std::uint64_t word :
         {f.injected_drop, f.injected_duplicate, f.injected_reorder, f.injected_delay,
          f.injected_truncate, f.injected_bitflip, f.injected_stall, f.frames_sent,
          f.corrupt_detected, f.duplicates_suppressed, f.retransmits}) {
        mix(word);
    }
    return h;
}

TEST(HardenedReplay, FrameIdsInjectorDecisionsAndRetransmitsArePinned) {
    // Which frames the injector hits, and how, depends only on frame ids and
    // attempts; truncation and bit-flip offsets count over the contiguous
    // frame. None depends on where the simulator keeps a frame's header or
    // on the checksum's value. These digests were recorded with contiguous
    // retained frames and the serial hash_combine checksum. The queue run's
    // digest also pins net::MessageQueue's flush order, hop (me + i) mod p
    // for i = 1 … p−1: the order decides which records in transit a grid
    // proxy aggregates into one frame, and so the per-rank metrics and the
    // frame count the digest mixes.
    RankPool inline_pool(0);
    const fault::FaultInjector every_fault(fault::FaultPlan::parse(
        "seed=11;drop=0.05;dup=0.05;reorder=0.1;bitflip=0.05;truncate=0.05"));
    const Trail all_to_all = all_to_all_trail(inline_pool, &every_fault);
    EXPECT_GT(all_to_all.faults.injected_truncate, 0u);
    EXPECT_EQ(replay_digest(all_to_all), 9685887027905704885ULL);

    const fault::FaultInjector large(
        fault::FaultPlan::parse("seed=5;dup=0.3;bitflip=0.3"));
    EXPECT_EQ(replay_digest(injected_run(inline_pool, large).trail),
              16130293269015396093ULL);
    EXPECT_EQ(replay_digest(queue_run(inline_pool, /*harden=*/true).trail),
              15538109452215696774ULL);
}

/// Ranks 1 to 3 each send one 40 Ki-word message to rank 0 at the same
/// simulated time: one window of 120 Ki words, all for one rank.
WindowedRun one_rank_run(RankPool& pool) {
    Simulator sim(kRanks, NetworkConfig{}, pool);
    sim.record_phase_details(true);
    WindowedRun run;
    run.trail.deliveries.resize(kRanks);
    sim.run_phase(
        "one-rank",
        [](RankHandle& self) {
            if (self.rank() >= 1 && self.rank() <= 3) {
                self.send(0, WordVec(40 * 1024, self.rank()));
            }
        },
        [&](RankHandle& self, Rank src, int tag, std::span<const std::uint64_t> payload) {
            log_message(run.trail, self, src, tag, payload);
        });
    finish(run, sim);
    return run;
}

TEST(ParallelDeliveryWindow, OneRankWindowStaysOnCaller) {
    RankPool inline_pool(0);
    RankPool helpers(3);
    const WindowedRun sequential = one_rank_run(inline_pool);
    EXPECT_EQ(sequential.windows, 1u);
    const WindowedRun parallel = one_rank_run(helpers);
    EXPECT_EQ(parallel.windows, 1u);
    EXPECT_EQ(parallel.fanned, 0u);
    EXPECT_TRUE(parallel.trail == sequential.trail);
}

struct WindowOomOutcome {
    OomOutcome outcome;
    std::uint64_t warm_up_fanned = 0;
    fault::FaultStats faults;
};

/// Every rank sends one 8 Ki-word message to its successor at the same
/// simulated time, so the sixteen deliveries form one window of 128 Ki
/// words. A warm-up superstep runs it cleanly; in the second, the handlers
/// on ranks 5 and 11 send a reply and then blow their memory budget. Rank
/// 5's delivery comes first in event order, so its error must win, and the
/// deliveries after it must look never run. Hardened, every message is a
/// frame that its receiving rank verifies and retires.
WindowOomOutcome window_oom_outcome(RankPool& pool, bool harden) {
    NetworkConfig config;
    config.memory_limit_words = 100;
    Simulator sim(kRanks, config, pool);
    sim.record_phase_details(true);
    WindowOomOutcome result;
    if (harden) {
        HardenOptions options;
        options.stats = &result.faults;
        sim.harden(options);
    }
    const auto exchange = [](RankHandle& self) {
        self.send((self.rank() + 1) % self.size(), WordVec(8 * 1024, self.rank()));
    };
    const auto handle = [](bool oom) {
        return [oom](RankHandle& self, Rank src, int,
                     std::span<const std::uint64_t> payload) {
            if (payload.size() == 1) { return; }  // a reply
            const Rank r = self.rank();
            self.charge_ops(10 * (r + 1));
            self.send(src, WordVec{r});
            self.note_buffered_words(oom && (r == 5 || r == 11) ? 1000 + r : 10 + r);
            self.charge_ops(7);
        };
    };
    sim.run_phase("warm-up", exchange, handle(false));
    result.warm_up_fanned = sim.phases().back().host_windows_fanned;
    OomOutcome& outcome = result.outcome;
    try {
        sim.run_phase("oom", exchange, handle(true));
        ADD_FAILURE() << "expected OomError";
    } catch (const OomError& e) {
        outcome.rank = e.rank();
        outcome.words = e.words();
    }
    outcome.report = oom_report(sim);
    outcome.metrics.assign(sim.rank_metrics().begin(), sim.rank_metrics().end());
    outcome.events = sim.events_scheduled();
    return result;
}

TEST(ParallelDeliveryWindow, OomSurfacesAsFirstEventWithSequentialMetrics) {
    RankPool inline_pool(0);
    RankPool helpers(3);
    const WindowOomOutcome sequential = window_oom_outcome(inline_pool, /*harden=*/false);
    EXPECT_EQ(sequential.warm_up_fanned, 0u);
    EXPECT_EQ(sequential.outcome.rank, 5u);
    EXPECT_EQ(sequential.outcome.words, 1005u);
    // Rank 5 replied before it threw; rank 6 received in the warm-up only
    // (a message and a reply).
    EXPECT_EQ(sequential.outcome.metrics[5].messages_sent, 4u);
    EXPECT_EQ(sequential.outcome.metrics[6].messages_received, 2u);
    EXPECT_EQ(sequential.outcome.metrics[11].peak_buffered_words, 21u);
    for (int run = 0; run < 3; ++run) {
        const WindowOomOutcome parallel = window_oom_outcome(helpers, /*harden=*/false);
        const std::string what = "run " + std::to_string(run);
        EXPECT_EQ(parallel.warm_up_fanned, 1u) << what;
        EXPECT_EQ(parallel.outcome.rank, sequential.outcome.rank) << what;
        EXPECT_EQ(parallel.outcome.words, sequential.outcome.words) << what;
        EXPECT_TRUE(parallel.outcome.metrics == sequential.outcome.metrics) << what;
        EXPECT_EQ(parallel.outcome.events, sequential.outcome.events) << what;
        test::expect_identical_reports(parallel.outcome.report, sequential.outcome.report,
                                       what);
    }
}

TEST(ParallelDeliveryWindow, HardenedOomSurfacesAsFirstEventWithSequentialMetrics) {
    RankPool inline_pool(0);
    RankPool helpers(3);
    const WindowOomOutcome sequential = window_oom_outcome(inline_pool, /*harden=*/true);
    EXPECT_EQ(sequential.warm_up_fanned, 0u);
    EXPECT_EQ(sequential.outcome.rank, 5u);
    EXPECT_EQ(sequential.outcome.words, 1005u);
    // Rank 5 replied before it threw; rank 6 received in the warm-up only.
    // Frames: the warm-up's 32, the oom superstep's 16 messages, and the
    // replies of ranks 1 to 5, whose deliveries precede rank 5's failure
    // (rank 0's, from rank 15, comes last in event order).
    EXPECT_EQ(sequential.outcome.metrics[5].messages_sent, 4u);
    EXPECT_EQ(sequential.outcome.metrics[6].messages_received, 2u);
    EXPECT_EQ(sequential.faults.frames_sent, 2 * kRanks + kRanks + 5);
    EXPECT_EQ(sequential.faults.retransmits, 0u);
    for (int run = 0; run < 3; ++run) {
        // Ranks past rank 5 may verify and retire their frames before the
        // failure is known; none of that may show.
        const WindowOomOutcome parallel = window_oom_outcome(helpers, /*harden=*/true);
        const std::string what = "run " + std::to_string(run);
        EXPECT_EQ(parallel.warm_up_fanned, 1u) << what;
        EXPECT_EQ(parallel.outcome.rank, sequential.outcome.rank) << what;
        EXPECT_EQ(parallel.outcome.words, sequential.outcome.words) << what;
        EXPECT_TRUE(parallel.outcome.metrics == sequential.outcome.metrics) << what;
        EXPECT_EQ(parallel.outcome.events, sequential.outcome.events) << what;
        EXPECT_TRUE(parallel.faults == sequential.faults) << what;
        test::expect_identical_reports(parallel.outcome.report, sequential.outcome.report,
                                       what);
    }
}

}  // namespace
}  // namespace katric::net
