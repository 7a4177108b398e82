#include "net/simulator.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <optional>
#include <string>
#include <vector>

#include "core/algorithm.hpp"
#include "fault/injector.hpp"
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

}  // namespace
}  // namespace katric::net
