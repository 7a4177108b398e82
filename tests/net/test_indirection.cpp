#include "net/indirection.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "net/message_queue.hpp"

namespace katric::net {
namespace {

TEST(GridRouter, ColumnsNearestToSqrt) {
    // ⌊√p + ½⌋ columns.
    EXPECT_EQ(GridRouter(1).columns(), 1u);
    EXPECT_EQ(GridRouter(2).columns(), 1u);   // √2≈1.41 → 1
    EXPECT_EQ(GridRouter(3).columns(), 2u);   // √3≈1.73 → 2
    EXPECT_EQ(GridRouter(4).columns(), 2u);
    EXPECT_EQ(GridRouter(6).columns(), 2u);   // √6≈2.45 → 2
    EXPECT_EQ(GridRouter(7).columns(), 3u);   // √7≈2.65 → 3
    EXPECT_EQ(GridRouter(16).columns(), 4u);
    EXPECT_EQ(GridRouter(20).columns(), 4u);  // √20≈4.47 → 4
    EXPECT_EQ(GridRouter(21).columns(), 5u);  // √21≈4.58 → 5
    EXPECT_EQ(GridRouter(1024).columns(), 32u);
}

class GridRouterPropertyTest : public ::testing::TestWithParam<Rank> {};

TEST_P(GridRouterPropertyTest, TwoHopTerminationForAllPairs) {
    const Rank p = GetParam();
    const GridRouter router(p);
    for (Rank src = 0; src < p; ++src) {
        EXPECT_EQ(router.first_hop(src, src), src);  // self-sends stay put
        for (Rank dst = 0; dst < p; ++dst) {
            if (dst == src) { continue; }
            const Rank hop1 = router.first_hop(src, dst);
            ASSERT_LT(hop1, p);
            ASSERT_NE(hop1, src) << "router must not bounce a message back to its sender";
            if (hop1 == dst) { continue; }
            // The proxy must reach the destination directly.
            const Rank hop2 = router.first_hop(hop1, dst);
            EXPECT_EQ(hop2, dst) << "p=" << p << " " << src << "->" << dst << " via "
                                 << hop1;
        }
    }
}

TEST_P(GridRouterPropertyTest, PartnerCountIsOrderSqrtP) {
    const Rank p = GetParam();
    const GridRouter router(p);
    // Outgoing partners of each PE: every first hop it may ever use.
    for (Rank src = 0; src < p; ++src) {
        std::set<Rank> partners;
        for (Rank dst = 0; dst < p; ++dst) {
            if (dst == src) { continue; }
            partners.insert(router.first_hop(src, dst));
        }
        EXPECT_LE(partners.size(), 2u * (router.columns() + router.rows()))
            << "PE " << src << " of " << p;
    }
}

INSTANTIATE_TEST_SUITE_P(ExhaustiveSmallP, GridRouterPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 15,
                                           16, 17, 20, 21, 23, 24, 25, 30, 36, 41, 48, 60,
                                           64, 100));

TEST(GridRouter, SameRowGoesDirect) {
    const GridRouter router(16);  // 4×4
    // (0,0) -> (0,3): proxy would be (0,3) = destination.
    EXPECT_EQ(router.first_hop(0, 3), 3u);
}

TEST(GridRouter, SameColumnGoesDirect) {
    const GridRouter router(16);
    // (0,1)=1 -> (3,1)=13: proxy (0,1) = src → direct.
    EXPECT_EQ(router.first_hop(1, 13), 13u);
}

TEST(GridRouter, OffGridUsesRowProxy) {
    const GridRouter router(16);
    // (0,1)=1 -> (2,3)=11: proxy = (0,3) = 3.
    EXPECT_EQ(router.first_hop(1, 11), 3u);
}

TEST(GridRouter, TransposedLastRowRule) {
    // p=7 with 3 columns: rows (0,1,2),(3,4,5),(6). Sender 6 sits in the
    // partial last row at (2,0); sending to destination 5=(1,2) needs proxy
    // (2,2), which does not exist → transposed proxy (j,l)=(0,2)=2.
    const GridRouter router(7);
    EXPECT_FALSE(router.exists(2, 2));
    EXPECT_EQ(router.first_hop(6, 5), 2u);
    // Second hop completes along the column.
    EXPECT_EQ(router.first_hop(2, 5), 5u);
}

TEST(DirectRouter, AlwaysFinalDestination) {
    const DirectRouter router;
    EXPECT_EQ(router.first_hop(3, 9), 9u);
    EXPECT_EQ(router.first_hop(9, 3), 3u);
}

TEST(GridIndirection, ReducesMaxMessagesOnAllToOne) {
    // The paper's motivating pattern: everyone sends one record to PE 0.
    // With direct routing PE 0 receives p−1 messages; with the grid,
    // proxies aggregate and PE 0 receives ≈ rows messages.
    const Rank p = 64;
    auto run = [&](std::unique_ptr<const Router> router) {
        Simulator sim(p, NetworkConfig{});
        MessageQueue queue(std::move(router), std::vector<std::uint64_t>(p, 1 << 20), 1);
        std::size_t delivered = 0;
        queue.run_phase(
            sim, "x",
            [&](RankHandle& self) {
                if (self.rank() != 0) {
                    const std::uint64_t word = self.rank();
                    queue.post(self, 0, std::span<const std::uint64_t>(&word, 1));
                }
            },
            [&](RankHandle&, std::span<const std::uint64_t>) { ++delivered; });
        EXPECT_EQ(delivered, p - 1);
        return sim.rank_metrics()[0].messages_received;
    };
    const auto direct_received = run(std::make_unique<DirectRouter>());
    const auto grid_received = run(std::make_unique<GridRouter>(p));
    EXPECT_EQ(direct_received, p - 1);
    // Row peers arrive directly; every column proxy contributes its own
    // record (first flush round) plus one aggregated forward (second round).
    EXPECT_LE(grid_received, 3u * GridRouter(p).rows());
    EXPECT_LT(grid_received, direct_received / 2);
}

}  // namespace
}  // namespace katric::net
