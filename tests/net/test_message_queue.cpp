#include "net/message_queue.hpp"

#include <gtest/gtest.h>

#include "util/assert.hpp"

#include <map>
#include <vector>

namespace katric::net {
namespace {

/// Drives a two-rank simulation where rank 0 posts records to rank 1.
struct QueueHarness {
    explicit QueueHarness(Rank p, std::uint64_t threshold, const Router& router,
                          NetworkConfig cfg = {})
        : sim(p, cfg) {
        for (Rank r = 0; r < p; ++r) { queues.emplace_back(threshold, router, 1); }
    }

    void run(const std::function<void(RankHandle&)>& start) {
        sim.run_phase(
            "x", start,
            [&](RankHandle& self, Rank, int, std::span<const std::uint64_t> payload) {
                queues[self.rank()].handle(
                    self, payload, [&](RankHandle& s, std::span<const std::uint64_t> rec) {
                        delivered[s.rank()].emplace_back(rec.begin(), rec.end());
                    });
            },
            [&](RankHandle& self) { queues[self.rank()].flush(self); });
    }

    Simulator sim;
    std::vector<MessageQueue> queues;
    std::map<Rank, std::vector<WordVec>> delivered;
};

TEST(MessageQueue, DeliversRecordsIntactAndInOrder) {
    const DirectRouter router;
    QueueHarness h(2, /*threshold=*/1 << 20, router);
    h.run([&](RankHandle& self) {
        if (self.rank() == 0) {
            for (std::uint64_t i = 0; i < 5; ++i) {
                const WordVec rec{i, i * 10, i * 100};
                h.queues[0].post(self, 1, rec);
            }
        }
    });
    ASSERT_EQ(h.delivered[1].size(), 5u);
    for (std::uint64_t i = 0; i < 5; ++i) {
        EXPECT_EQ(h.delivered[1][i], (WordVec{i, i * 10, i * 100}));
    }
}

TEST(MessageQueue, BelowThresholdSingleFlushMessage) {
    const DirectRouter router;
    QueueHarness h(2, 1 << 20, router);
    h.run([&](RankHandle& self) {
        if (self.rank() == 0) {
            for (std::uint64_t i = 0; i < 100; ++i) {
                const WordVec rec{i};
                h.queues[0].post(self, 1, rec);
            }
        }
    });
    // All 100 records aggregate into one physical message at the idle flush.
    EXPECT_EQ(h.sim.rank_metrics()[0].messages_sent, 1u);
    EXPECT_EQ(h.delivered[1].size(), 100u);
}

TEST(MessageQueue, ThresholdTriggersEagerFlush) {
    const DirectRouter router;
    QueueHarness h(2, /*threshold=*/10, router);
    h.run([&](RankHandle& self) {
        if (self.rank() == 0) {
            for (std::uint64_t i = 0; i < 100; ++i) {
                const WordVec rec{i};
                h.queues[0].post(self, 1, rec);
            }
        }
    });
    EXPECT_GT(h.sim.rank_metrics()[0].messages_sent, 10u);
    EXPECT_EQ(h.delivered[1].size(), 100u);
}

TEST(MessageQueue, PeakBufferBoundedByThresholdPlusRecord) {
    const DirectRouter router;
    const std::uint64_t delta = 64;
    QueueHarness h(4, delta, router);
    h.run([&](RankHandle& self) {
        if (self.rank() == 0) {
            for (std::uint64_t i = 0; i < 200; ++i) {
                const WordVec rec{i, i, i};  // 3 words + 2 header
                h.queues[0].post(self, 1 + (i % 3), rec);
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
    const DirectRouter router;
    QueueHarness h(2, /*threshold=*/1000, router, cfg);  // δ above the budget
    EXPECT_THROW(h.run([&](RankHandle& self) {
        if (self.rank() == 0) {
            for (std::uint64_t i = 0; i < 100; ++i) {
                const WordVec rec{i};
                h.queues[0].post(self, 1, rec);
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
    const DirectRouter router;
    const Rank p = 6;
    const Rank sender = 2;
    QueueHarness h(p, 1 << 20, router, cfg);
    std::vector<double> arrival(p, 0.0);
    h.sim.run_phase(
        "x",
        [&](RankHandle& self) {
            if (self.rank() != sender) { return; }
            for (const Rank dest : {5u, 0u, 3u, 1u, 4u}) {
                const WordVec rec{dest};
                h.queues[sender].post(self, dest, rec);
            }
            h.queues[sender].flush(self);
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
    const DirectRouter router;
    QueueHarness h(4, 1 << 20, router);
    h.sim.run_phase(
        "x",
        [&](RankHandle& self) {
            if (self.rank() != 0) { return; }
            auto& queue = h.queues[0];
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
    const GridRouter router(p);
    QueueHarness h(p, 1 << 20, router);
    h.run([&](RankHandle& self) {
        const Rank r = self.rank();
        for (Rank dest = 0; dest < p; ++dest) {
            if (dest == r) { continue; }
            const WordVec rec{r, dest};
            h.queues[r].post(self, dest, rec);
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
    const GridRouter router(p);
    QueueHarness h(p, 1 << 20, router);
    h.run([&](RankHandle& self) {
        const Rank r = self.rank();
        if (r == 0 || r == 1) {
            const WordVec rec{r};
            h.queues[r].post(self, 8, rec);
        }
    });
    ASSERT_EQ(h.delivered[8].size(), 2u);
    // PE 8 receives exactly one physical message (both records rode the
    // proxy's aggregation).
    EXPECT_EQ(h.sim.rank_metrics()[8].messages_received, 1u);
    EXPECT_EQ(h.sim.rank_metrics()[2].messages_received, 2u);  // the proxy
}

TEST(MessageQueue, PostToSelfIsRejected) {
    const DirectRouter router;
    Simulator sim(2, NetworkConfig{});
    MessageQueue queue(100, router, 1);
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
    const DirectRouter router;
    Simulator sim(2, NetworkConfig{});
    MessageQueue q0(1 << 20, router, 1, /*epoch_stamped=*/true);
    MessageQueue q1(1 << 20, router, 1, /*epoch_stamped=*/true);
    std::vector<WordVec> received;
    for (std::uint64_t epoch = 1; epoch <= 3; ++epoch) {
        q0.begin_epoch(epoch);
        q1.begin_epoch(epoch);
        sim.run_phase(
            "batch",
            [&](RankHandle& self) {
                if (self.rank() == 0) {
                    const WordVec rec{epoch * 100};
                    q0.post(self, 1, rec);
                }
            },
            [&](RankHandle& self, Rank, int, std::span<const std::uint64_t> payload) {
                q1.handle(self, payload,
                          [&](RankHandle&, std::span<const std::uint64_t> rec) {
                              received.emplace_back(rec.begin(), rec.end());
                          });
            },
            [&](RankHandle& self) {
                if (self.rank() == 0 && q0.has_buffered()) { q0.flush(self); }
            });
    }
    ASSERT_EQ(received.size(), 3u);
    EXPECT_EQ(received[0], (WordVec{100}));
    EXPECT_EQ(received[2], (WordVec{300}));
    EXPECT_EQ(q1.epoch(), 3u);
}

TEST(MessageQueue, StaleEpochRecordRejected) {
    // A record stamped in epoch 1 must not survive into epoch 2 — the
    // batch-boundary guarantee of the streaming subsystem.
    const DirectRouter router;
    Simulator sim(2, NetworkConfig{});
    MessageQueue sender(1 << 20, router, 1, /*epoch_stamped=*/true);
    MessageQueue receiver(1 << 20, router, 1, /*epoch_stamped=*/true);
    sender.begin_epoch(1);
    receiver.begin_epoch(1);
    WordVec stale_payload;
    sim.run_phase(
        "x",
        [&](RankHandle& self) {
            if (self.rank() == 0) {
                const WordVec rec{7};
                sender.post(self, 1, rec);
            }
        },
        [&](RankHandle&, Rank, int, std::span<const std::uint64_t> payload) {
            stale_payload.assign(payload.begin(), payload.end());
        },
        [&](RankHandle& self) {
            if (self.rank() == 0 && sender.has_buffered()) { sender.flush(self); }
        });
    ASSERT_FALSE(stale_payload.empty());
    receiver.begin_epoch(2);
    sim.run_phase(
        "y",
        [&](RankHandle& self) {
            if (self.rank() == 1) {
                EXPECT_THROW(receiver.handle(self, stale_payload,
                                             [](RankHandle&,
                                                std::span<const std::uint64_t>) {}),
                             katric::assertion_error);
            }
        },
        {});
}

TEST(MessageQueue, EpochMisuseRejected) {
    const DirectRouter router;
    MessageQueue plain(100, router, 1);
    EXPECT_THROW(plain.begin_epoch(1), katric::assertion_error);

    Simulator sim(2, NetworkConfig{});
    MessageQueue stamped(1 << 20, router, 1, /*epoch_stamped=*/true);
    sim.run_phase(
        "x",
        [&](RankHandle& self) {
            if (self.rank() == 0) {
                const WordVec rec{1};
                stamped.post(self, 1, rec);
                // Buffered residue across a boundary is a protocol bug.
                EXPECT_THROW(stamped.begin_epoch(2), katric::assertion_error);
                stamped.flush(self);
            }
        },
        {});
    stamped.begin_epoch(2);  // clean boundary after the flush
    EXPECT_EQ(stamped.epoch(), 2u);
}

TEST(MessageQueue, EpochStampSurvivesProxyHop) {
    // 9 PEs, 3×3 grid: rank 0 → 8 routes via proxy 2, which re-posts the
    // record with its own (identical) epoch stamp.
    const Rank p = 9;
    const GridRouter router(p);
    Simulator sim(p, NetworkConfig{});
    std::vector<MessageQueue> queues;
    for (Rank r = 0; r < p; ++r) { queues.emplace_back(1 << 20, router, 1, true); }
    for (auto& q : queues) { q.begin_epoch(5); }
    std::size_t delivered = 0;
    sim.run_phase(
        "x",
        [&](RankHandle& self) {
            if (self.rank() == 0) {
                const WordVec rec{42};
                queues[0].post(self, 8, rec);
            }
        },
        [&](RankHandle& self, Rank, int, std::span<const std::uint64_t> payload) {
            queues[self.rank()].handle(self, payload,
                                       [&](RankHandle& s, std::span<const std::uint64_t> rec) {
                                           EXPECT_EQ(s.rank(), 8u);
                                           ASSERT_EQ(rec.size(), 1u);
                                           EXPECT_EQ(rec[0], 42u);
                                           ++delivered;
                                       });
        },
        [&](RankHandle& self) {
            auto& q = queues[self.rank()];
            if (q.has_buffered()) { q.flush(self); }
        });
    EXPECT_EQ(delivered, 1u);
}

TEST(MessageQueue, MalformedPayloadRejected) {
    const DirectRouter router;
    Simulator sim(1, NetworkConfig{});
    MessageQueue queue(100, router, 1);
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
