#include "net/message_queue.hpp"

#include <gtest/gtest.h>

#include "util/assert.hpp"

#include <map>
#include <memory>
#include <vector>

namespace katric::net {
namespace {

using RouterPtr = std::unique_ptr<const Router>;

/// A queue over p ranks with the same δ on every rank.
MessageQueue uniform_queue(Rank p, std::uint64_t threshold, RouterPtr router,
                           bool epoch_stamped = false) {
    return MessageQueue(std::move(router), std::vector<std::uint64_t>(p, threshold), 1,
                        epoch_stamped);
}

/// Drives a p-rank simulation through one queue and logs every delivered
/// record per final destination.
struct QueueHarness {
    explicit QueueHarness(Rank p, std::uint64_t threshold,
                          RouterPtr router = std::make_unique<DirectRouter>(),
                          NetworkConfig cfg = {})
        : sim(p, cfg), queue(uniform_queue(p, threshold, std::move(router))) {}

    void run(const std::function<void(RankHandle&)>& start) {
        queue.run_phase(sim, "x", start,
                        [&](RankHandle& self, std::span<const std::uint64_t> rec) {
                            delivered[self.rank()].emplace_back(rec.begin(), rec.end());
                        });
    }

    Simulator sim;
    MessageQueue queue;
    std::map<Rank, std::vector<WordVec>> delivered;
};

TEST(MessageQueue, DeliversRecordsIntactAndInOrder) {
    QueueHarness h(2, /*threshold=*/1 << 20);
    h.run([&](RankHandle& self) {
        if (self.rank() == 0) {
            for (std::uint64_t i = 0; i < 5; ++i) {
                const WordVec rec{i, i * 10, i * 100};
                h.queue.post(self, 1, rec);
            }
        }
    });
    ASSERT_EQ(h.delivered[1].size(), 5u);
    for (std::uint64_t i = 0; i < 5; ++i) {
        EXPECT_EQ(h.delivered[1][i], (WordVec{i, i * 10, i * 100}));
    }
}

TEST(MessageQueue, BelowThresholdSingleFlushMessage) {
    QueueHarness h(2, 1 << 20);
    h.run([&](RankHandle& self) {
        if (self.rank() == 0) {
            for (std::uint64_t i = 0; i < 100; ++i) {
                const WordVec rec{i};
                h.queue.post(self, 1, rec);
            }
        }
    });
    // All 100 records aggregate into one physical message at the idle flush.
    EXPECT_EQ(h.sim.rank_metrics()[0].messages_sent, 1u);
    EXPECT_EQ(h.delivered[1].size(), 100u);
}

TEST(MessageQueue, ThresholdTriggersEagerFlush) {
    QueueHarness h(2, /*threshold=*/10);
    h.run([&](RankHandle& self) {
        if (self.rank() == 0) {
            for (std::uint64_t i = 0; i < 100; ++i) {
                const WordVec rec{i};
                h.queue.post(self, 1, rec);
            }
        }
    });
    EXPECT_GT(h.sim.rank_metrics()[0].messages_sent, 10u);
    EXPECT_EQ(h.delivered[1].size(), 100u);
}

TEST(MessageQueue, PeakBufferBoundedByThresholdPlusRecord) {
    const std::uint64_t delta = 64;
    QueueHarness h(4, delta);
    h.run([&](RankHandle& self) {
        if (self.rank() == 0) {
            for (std::uint64_t i = 0; i < 200; ++i) {
                const WordVec rec{i, i, i};  // 3 words + 2 header
                h.queue.post(self, 1 + (i % 3), rec);
            }
        }
    });
    // The linear-memory claim: the buffer never exceeds δ by more than one
    // record (flush happens as soon as the total crosses δ).
    EXPECT_LE(h.sim.rank_metrics()[0].peak_buffered_words, delta + 5);
    EXPECT_EQ(h.delivered[1].size(), 67u);
    EXPECT_EQ(h.delivered[2].size(), 67u);
    EXPECT_EQ(h.delivered[3].size(), 66u);
}

TEST(MessageQueue, ExceedingMemoryBudgetThrows) {
    NetworkConfig cfg;
    cfg.memory_limit_words = 50;
    QueueHarness h(2, /*threshold=*/1000, std::make_unique<DirectRouter>(),
                   cfg);  // δ above the budget
    EXPECT_THROW(h.run([&](RankHandle& self) {
        if (self.rank() == 0) {
            for (std::uint64_t i = 0; i < 100; ++i) {
                const WordVec rec{i};
                h.queue.post(self, 1, rec);
            }
        }
    }),
                 OomError);
}

TEST(MessageQueue, FlushSendsInStaggeredHopOrder) {
    // The flush rule: hop (me + i) mod p for i = 1 … p−1, whatever order the
    // records were posted in. With α far above every other charge, each
    // send's arrival time is its position in the sender's order.
    NetworkConfig cfg;
    cfg.alpha = 1.0;
    const Rank p = 6;
    const Rank sender = 2;
    QueueHarness h(p, 1 << 20, std::make_unique<DirectRouter>(), cfg);
    std::vector<double> arrival(p, 0.0);
    h.sim.run_phase(
        "x",
        [&](RankHandle& self) {
            if (self.rank() != sender) { return; }
            for (const Rank dest : {5u, 0u, 3u, 1u, 4u}) {
                const WordVec rec{dest};
                h.queue.post(self, dest, rec);
            }
            h.queue.flush(self);
        },
        [&](RankHandle& self, Rank, int, std::span<const std::uint64_t>) {
            arrival[self.rank()] = self.now();
        });
    EXPECT_EQ(h.sim.rank_metrics()[sender].messages_sent, p - 1);
    for (Rank i = 1; i + 1 < p; ++i) {
        EXPECT_LT(arrival[(sender + i) % p], arrival[(sender + i + 1) % p]) << "i " << i;
    }
}

TEST(MessageQueue, EmptyFlushSendsAndChargesNothing) {
    QueueHarness h(4, 1 << 20);
    h.sim.run_phase(
        "x",
        [&](RankHandle& self) {
            if (self.rank() != 0) { return; }
            auto& queue = h.queue;
            const auto unchanged = [&] {
                const double before = self.now();
                const RankMetrics metrics = self.metrics();
                queue.flush(self);
                EXPECT_EQ(self.now(), before);
                EXPECT_TRUE(self.metrics() == metrics);
            };
            unchanged();  // nothing posted yet
            const WordVec rec{7};
            queue.post(self, 3, rec);
            queue.flush(self);
            EXPECT_EQ(self.metrics().messages_sent, 1u);
            unchanged();  // everything already sent
        },
        [](RankHandle&, Rank, int, std::span<const std::uint64_t>) {});
}

TEST(MessageQueue, IndirectRoutingDeliversEverythingToFinalDest) {
    const Rank p = 16;
    QueueHarness h(p, 1 << 20, std::make_unique<GridRouter>(p));
    h.run([&](RankHandle& self) {
        const Rank r = self.rank();
        for (Rank dest = 0; dest < p; ++dest) {
            if (dest == r) { continue; }
            const WordVec rec{r, dest};
            h.queue.post(self, dest, rec);
        }
    });
    for (Rank dest = 0; dest < p; ++dest) {
        ASSERT_EQ(h.delivered[dest].size(), p - 1) << "dest " << dest;
        for (const auto& rec : h.delivered[dest]) {
            ASSERT_EQ(rec.size(), 2u);
            EXPECT_EQ(rec[1], dest);  // reached its intended final target
        }
    }
}

TEST(MessageQueue, ProxyAggregatesSecondHop) {
    // 9 PEs in a 3×3 grid; all of row 0 send to PE 8=(2,2). The proxy (0,2)=2
    // receives the row's records and forwards them as one aggregated message.
    const Rank p = 9;
    QueueHarness h(p, 1 << 20, std::make_unique<GridRouter>(p));
    h.run([&](RankHandle& self) {
        const Rank r = self.rank();
        if (r == 0 || r == 1) {
            const WordVec rec{r};
            h.queue.post(self, 8, rec);
        }
    });
    ASSERT_EQ(h.delivered[8].size(), 2u);
    // PE 8 receives exactly one physical message (both records rode the
    // proxy's aggregation).
    EXPECT_EQ(h.sim.rank_metrics()[8].messages_received, 1u);
    EXPECT_EQ(h.sim.rank_metrics()[2].messages_received, 2u);  // the proxy
}

TEST(MessageQueue, PostToSelfIsRejected) {
    Simulator sim(2, NetworkConfig{});
    auto queue = uniform_queue(2, 100, std::make_unique<DirectRouter>());
    EXPECT_THROW(sim.run_phase(
                     "x",
                     [&](RankHandle& self) {
                         if (self.rank() == 0) {
                             const WordVec rec{1};
                             queue.post(self, 0, rec);
                         }
                     },
                     {}),
                 katric::assertion_error);
}

TEST(MessageQueue, EpochStampedRecordsRoundTrip) {
    Simulator sim(2, NetworkConfig{});
    auto queue = uniform_queue(2, 1 << 20, std::make_unique<DirectRouter>(),
                               /*epoch_stamped=*/true);
    std::vector<WordVec> received;
    for (std::uint64_t epoch = 1; epoch <= 3; ++epoch) {
        queue.begin_epoch();
        sim.run_phase(
            "batch",
            [&](RankHandle& self) {
                if (self.rank() == 0) {
                    const WordVec rec{epoch * 100};
                    queue.post(self, 1, rec);
                }
            },
            [&](RankHandle& self, Rank, int, std::span<const std::uint64_t> payload) {
                queue.handle(self, payload,
                             [&](RankHandle&, std::span<const std::uint64_t> rec) {
                                 received.emplace_back(rec.begin(), rec.end());
                             });
            },
            [&](RankHandle& self) { queue.flush(self); });
    }
    ASSERT_EQ(received.size(), 3u);
    EXPECT_EQ(received[0], (WordVec{100}));
    EXPECT_EQ(received[2], (WordVec{300}));
    EXPECT_EQ(queue.epoch(), 3u);
}

TEST(MessageQueue, StaleEpochRecordRejected) {
    // A record stamped in epoch 1 must not survive into epoch 2 — the
    // batch-boundary guarantee of the streaming subsystem. Rank 0's flush
    // is captured on the wire in epoch 1 and handed to rank 1 in epoch 2.
    Simulator sim(2, NetworkConfig{});
    auto queue = uniform_queue(2, 1 << 20, std::make_unique<DirectRouter>(),
                               /*epoch_stamped=*/true);
    queue.begin_epoch();
    WordVec stale_payload;
    sim.run_phase(
        "x",
        [&](RankHandle& self) {
            if (self.rank() == 0) {
                const WordVec rec{7};
                queue.post(self, 1, rec);
            }
        },
        [&](RankHandle&, Rank, int, std::span<const std::uint64_t> payload) {
            stale_payload.assign(payload.begin(), payload.end());
        },
        [&](RankHandle& self) { queue.flush(self); });
    ASSERT_EQ(stale_payload, (WordVec{1, 1, 1, 7}));
    queue.begin_epoch();
    sim.run_phase(
        "y",
        [&](RankHandle& self) {
            if (self.rank() == 1) {
                EXPECT_THROW(
                    queue.handle(self, stale_payload,
                                 [](RankHandle&, std::span<const std::uint64_t>) {}),
                    katric::assertion_error);
            }
        },
        {});
}

TEST(MessageQueue, CraftedStaleStampRejected) {
    // Sender and receiver share the machine's epoch, so a stale stamp can
    // only arrive crafted: every stamp but the current one is rejected, and
    // nothing of the payload is delivered.
    Simulator sim(2, NetworkConfig{});
    auto queue = uniform_queue(2, 1 << 20, std::make_unique<DirectRouter>(),
                               /*epoch_stamped=*/true);
    queue.begin_epoch();
    queue.begin_epoch();
    std::size_t delivered = 0;
    const MessageQueue::Deliver count = [&](RankHandle&, std::span<const std::uint64_t>) {
        ++delivered;
    };
    sim.run_phase(
        "x",
        [&](RankHandle& self) {
            if (self.rank() != 1) { return; }
            for (const std::uint64_t stamp : {0u, 1u, 3u}) {
                const WordVec stale{1, 1, stamp, 7};
                EXPECT_THROW(queue.handle(self, stale, count), katric::assertion_error)
                    << "stamp " << stamp;
            }
            const WordVec current{1, 1, 2, 7};
            queue.handle(self, current, count);
        },
        {});
    EXPECT_EQ(delivered, 1u);
}

TEST(MessageQueue, EpochMisuseRejected) {
    auto plain = uniform_queue(2, 100, std::make_unique<DirectRouter>());
    EXPECT_THROW(plain.begin_epoch(), katric::assertion_error);

    Simulator sim(2, NetworkConfig{});
    auto stamped = uniform_queue(2, 1 << 20, std::make_unique<DirectRouter>(),
                                 /*epoch_stamped=*/true);
    stamped.begin_epoch();
    sim.run_phase(
        "x",
        [&](RankHandle& self) {
            if (self.rank() == 0) {
                const WordVec rec{1};
                stamped.post(self, 1, rec);
                // Buffered residue across a boundary is a protocol bug.
                EXPECT_THROW(stamped.begin_epoch(), katric::assertion_error);
                stamped.flush(self);
            }
        },
        {});
    stamped.begin_epoch();  // clean boundary after the flush
    EXPECT_EQ(stamped.epoch(), 2u);
}

TEST(MessageQueue, BeginEpochChecksEveryLane) {
    // The epoch is machine-wide, so residue in any rank's lane blocks it —
    // not only the lane of the rank that happens to call begin_epoch.
    const Rank p = 4;
    for (Rank buffered = 0; buffered < p; ++buffered) {
        Simulator sim(p, NetworkConfig{});
        auto queue = uniform_queue(p, 1 << 20, std::make_unique<DirectRouter>(),
                                   /*epoch_stamped=*/true);
        sim.run_phase(
            "x",
            [&](RankHandle& self) {
                if (self.rank() == buffered) {
                    const WordVec rec{1};
                    queue.post(self, (buffered + 1) % p, rec);
                }
            },
            {});
        EXPECT_THROW(queue.begin_epoch(), katric::assertion_error) << "rank " << buffered;
        EXPECT_EQ(queue.epoch(), 0u);
    }
}

TEST(MessageQueue, StampedRunPhaseOpensAnEpochPerSuperstep) {
    const Rank p = 3;
    Simulator sim(p, NetworkConfig{});
    auto queue = uniform_queue(p, 1 << 20, std::make_unique<DirectRouter>(),
                               /*epoch_stamped=*/true);
    std::vector<std::vector<std::uint64_t>> seen(p);  // per receiving rank
    for (std::uint64_t step = 1; step <= 3; ++step) {
        queue.run_phase(
            sim, "step",
            [&](RankHandle& self) {
                EXPECT_EQ(queue.epoch(), step);
                const WordVec rec{step};
                queue.post(self, (self.rank() + 1) % p, rec);
            },
            [&](RankHandle& self, std::span<const std::uint64_t> rec) {
                ASSERT_EQ(rec.size(), 1u);
                seen[self.rank()].push_back(rec[0]);
            });
        EXPECT_EQ(queue.epoch(), step);
    }
    for (Rank r = 0; r < p; ++r) {
        EXPECT_EQ(seen[r], (std::vector<std::uint64_t>{1, 2, 3})) << "rank " << r;
    }

    // An unstamped queue keeps epoch 0 through its supersteps.
    auto plain = uniform_queue(p, 1 << 20, std::make_unique<DirectRouter>());
    plain.run_phase(sim, "plain", [](RankHandle&) {},
                    [](RankHandle&, std::span<const std::uint64_t>) {});
    EXPECT_EQ(plain.epoch(), 0u);
}

TEST(MessageQueue, EpochStampSurvivesProxyHop) {
    // 9 PEs, 3×3 grid: rank 0 → 8 routes via proxy 2, which re-posts the
    // record with the same (machine-wide) epoch stamp.
    const Rank p = 9;
    Simulator sim(p, NetworkConfig{});
    auto queue = uniform_queue(p, 1 << 20, std::make_unique<GridRouter>(p),
                               /*epoch_stamped=*/true);
    std::size_t delivered = 0;
    queue.run_phase(
        sim, "x",
        [&](RankHandle& self) {
            if (self.rank() == 0) {
                const WordVec rec{42};
                queue.post(self, 8, rec);
            }
        },
        [&](RankHandle& s, std::span<const std::uint64_t> rec) {
            EXPECT_EQ(s.rank(), 8u);
            ASSERT_EQ(rec.size(), 1u);
            EXPECT_EQ(rec[0], 42u);
            ++delivered;
        });
    EXPECT_EQ(delivered, 1u);
    EXPECT_EQ(sim.rank_metrics()[2].messages_received, 1u);  // the proxy
}

TEST(MessageQueue, MalformedPayloadRejected) {
    Simulator sim(1, NetworkConfig{});
    auto queue = uniform_queue(1, 100, std::make_unique<DirectRouter>());
    sim.run_phase(
        "x",
        [&](RankHandle& self) {
            const WordVec truncated{0};  // header needs 2 words
            EXPECT_THROW(queue.handle(self, truncated,
                                      [](RankHandle&, std::span<const std::uint64_t>) {}),
                         katric::assertion_error);
            const WordVec bad_length{0, 5, 1};  // claims 5 words, has 1
            EXPECT_THROW(queue.handle(self, bad_length,
                                      [](RankHandle&, std::span<const std::uint64_t>) {}),
                         katric::assertion_error);
        },
        {});
}

}  // namespace
}  // namespace katric::net
