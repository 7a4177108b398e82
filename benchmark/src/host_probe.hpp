#pragma once

// A fixed piece of work in the benchmark's own code, built without the
// library and its flags, so that no change to katric can make it faster or
// slower: its run time measures how fast the shared host runs right now.

#include <cstdint>
#include <vector>

namespace katric::benchmark {

class HostProbe {
public:
    /// Builds the probe's input: sorted random neighbour lists over a
    /// working set of a few MiB, the access pattern of the triangle kernels.
    HostProbe();

    /// Seconds of one probe: the median of several timed runs of the work.
    [[nodiscard]] double sample();

private:
    [[nodiscard]] std::uint64_t run_once() const;

    std::vector<std::uint32_t> offsets_;
    std::vector<std::uint32_t> targets_;
    std::uint64_t sink_ = 0;
};

}  // namespace katric::benchmark
