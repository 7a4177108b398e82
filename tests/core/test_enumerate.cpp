#include "core/enumerate.hpp"

#include <gtest/gtest.h>

#include "gen/rmat.hpp"
#include "net/rank_pool.hpp"
#include "support/oneshot.hpp"
#include "support/oracle.hpp"

namespace katric::core {
namespace {

/// The local phase emits its triangles from a parallel start round: with
/// helper threads every triangle still arrives exactly once, and the run's
/// simulated cost equals the inline run's.
TEST(Enumerate, HelperThreadsEmitEveryTriangleOnce) {
    net::RankPool inline_pool(0);
    net::RankPool helpers(3);
    const auto g = gen::generate_rmat(9, 4096, 5);
    const auto expected = test::brute_force_triangles(g);
    for (const auto algorithm :
         {Algorithm::kDitric, Algorithm::kCetric, Algorithm::kCetric2}) {
        SCOPED_TRACE(algorithm_name(algorithm));
        RunSpec spec;
        spec.algorithm = algorithm;
        spec.num_ranks = 8;
        const auto reference = test::oneshot_enumerate(g, spec, inline_pool);
        const auto result = test::oneshot_enumerate(g, spec, helpers);
        EXPECT_TRUE(result.triangles == expected);
        EXPECT_TRUE(reference.triangles == expected);
        EXPECT_EQ(result.count.triangles, expected.size());
        EXPECT_EQ(result.count.total_time, reference.count.total_time);
        EXPECT_EQ(result.count.max_words_sent, reference.count.max_words_sent);
        EXPECT_EQ(result.count.local_phase_triangles,
                  reference.count.local_phase_triangles);
    }
}

}  // namespace
}  // namespace katric::core
