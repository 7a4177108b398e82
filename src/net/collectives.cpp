#include "net/collectives.hpp"

#include <utility>

#include "util/assert.hpp"

namespace katric::net {

namespace {
constexpr int kTagAllToAll = 1001;
constexpr int kTagReduce = 1002;
constexpr int kTagBroadcast = 1003;
}  // namespace

std::vector<std::vector<WordVec>> all_to_all(Simulator& sim,
                                             std::vector<std::vector<WordVec>> sends,
                                             bool sparse, const std::string& phase_name) {
    const Rank p = sim.num_ranks();
    KATRIC_ASSERT(sends.size() == p);
    std::vector<std::vector<WordVec>> recv(p, std::vector<WordVec>(p));

    sim.run_phase(
        phase_name,
        [&](RankHandle& self) {
            const Rank r = self.rank();
            KATRIC_ASSERT(sends[r].size() == p);
            recv[r][r] = std::move(sends[r][r]);
            // Offset schedule (r+1, r+2, …) staggers traffic so no PE is hit
            // by all senders at once — the usual all-to-all round-robin.
            for (Rank offset = 1; offset < p; ++offset) {
                const Rank dest = static_cast<Rank>((r + offset) % p);
                if (sparse && sends[r][dest].empty()) { continue; }
                self.send(dest, std::move(sends[r][dest]), kTagAllToAll);
            }
        },
        [&](RankHandle& self, Rank src, int tag, std::span<const std::uint64_t> payload) {
            KATRIC_ASSERT(tag == kTagAllToAll);
            recv[self.rank()][src].assign(payload.begin(), payload.end());
        });
    return recv;
}

void charge_all_to_all(Simulator& sim,
                       const std::vector<std::vector<std::uint64_t>>& words, bool sparse,
                       const std::string& phase_name) {
    const Rank p = sim.num_ranks();
    KATRIC_ASSERT(words.size() == p);
    sim.run_phase(
        phase_name,
        [&](RankHandle& self) {
            const Rank r = self.rank();
            KATRIC_ASSERT(words[r].size() == p);
            // The self-payload moves without a send in all_to_all — nothing
            // to charge here either.
            for (Rank offset = 1; offset < p; ++offset) {
                const Rank dest = static_cast<Rank>((r + offset) % p);
                if (sparse && words[r][dest] == 0) { continue; }
                self.send_sized(dest, words[r][dest], kTagAllToAll);
            }
        },
        [](RankHandle&, Rank, int tag, std::span<const std::uint64_t>) {
            KATRIC_ASSERT(tag == kTagAllToAll);
        });
}

std::uint64_t allreduce_sum(Simulator& sim, const std::vector<std::uint64_t>& values,
                            const std::string& phase_name) {
    const Rank p = sim.num_ranks();
    KATRIC_ASSERT(values.size() == p);

    // Binomial tree: children of r are r+d for d = 1,2,4,… while r % 2d == 0
    // and r+d < p; the parent of r ≠ 0 is r − lowbit(r).
    std::vector<std::uint64_t> acc(values);
    std::vector<int> pending(p, 0);
    std::vector<std::uint64_t> result(p, 0);
    // Bytes, not std::vector<bool>: each rank's handler sets its own flag,
    // and handlers of one delivery window may run concurrently.
    std::vector<std::uint8_t> done(p, 0);
    for (Rank r = 0; r < p; ++r) {
        for (Rank d = 1; r + d < p && r % (2 * d) == 0; d *= 2) { ++pending[r]; }
    }
    auto parent = [](Rank r) { return static_cast<Rank>(r - (r & (~r + 1u))); };
    auto forward_down = [&](RankHandle& self) {
        const Rank r = self.rank();
        result[r] = acc[r];
        done[r] = 1;
        for (Rank d = 1; r + d < p && r % (2 * d) == 0; d *= 2) {
            self.send(static_cast<Rank>(r + d), WordVec{acc[r]}, kTagBroadcast);
        }
    };

    if (p == 1) { return values[0]; }

    sim.run_phase(
        phase_name,
        [&](RankHandle& self) {
            const Rank r = self.rank();
            if (pending[r] == 0 && r != 0) {
                self.send(parent(r), WordVec{acc[r]}, kTagReduce);
            }
        },
        [&](RankHandle& self, Rank /*src*/, int tag,
            std::span<const std::uint64_t> payload) {
            const Rank r = self.rank();
            KATRIC_ASSERT(payload.size() == 1);
            if (tag == kTagReduce) {
                acc[r] += payload[0];
                self.charge_ops(1);
                if (--pending[r] == 0) {
                    if (r == 0) {
                        forward_down(self);  // reduction complete; broadcast
                    } else {
                        self.send(parent(r), WordVec{acc[r]}, kTagReduce);
                    }
                }
            } else {
                KATRIC_ASSERT(tag == kTagBroadcast);
                acc[r] = payload[0];
                forward_down(self);
            }
        });

    for (Rank r = 0; r < p; ++r) {
        KATRIC_ASSERT_MSG(done[r] != 0, "allreduce did not reach rank " << r);
        KATRIC_ASSERT_MSG(result[r] == result[0], "allreduce results disagree");
    }
    return result[0];
}

}  // namespace katric::net
