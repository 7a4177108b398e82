#include "host_probe.hpp"

#include <algorithm>
#include <chrono>
#include <random>

namespace katric::benchmark {

namespace {

constexpr std::uint32_t kVertices = 1U << 16;
constexpr std::uint32_t kDegree = 16;
/// Vertices whose lists one run intersects with each neighbour's: about
/// 10^6 merge steps over lists spread across the whole working set.
constexpr std::uint32_t kRunVertices = 2048;
/// Timed runs per sample; the sample is their median.
constexpr int kRunsPerSample = 5;

}  // namespace

HostProbe::HostProbe() {
    std::mt19937_64 random(2023);
    std::uniform_int_distribution<std::uint32_t> vertex(0, kVertices - 1);
    offsets_.reserve(kVertices + 1);
    offsets_.push_back(0);
    std::vector<std::uint32_t> list;
    for (std::uint32_t v = 0; v < kVertices; ++v) {
        list.clear();
        for (std::uint32_t i = 0; i < kDegree; ++i) { list.push_back(vertex(random)); }
        std::sort(list.begin(), list.end());
        list.erase(std::unique(list.begin(), list.end()), list.end());
        targets_.insert(targets_.end(), list.begin(), list.end());
        offsets_.push_back(static_cast<std::uint32_t>(targets_.size()));
    }
}

std::uint64_t HostProbe::run_once() const {
    std::uint64_t common = 0;
    for (std::uint32_t v = 0; v < kRunVertices; ++v) {
        for (auto e = offsets_[v]; e < offsets_[v + 1]; ++e) {
            const auto u = targets_[e];
            auto a = offsets_[v];
            auto b = offsets_[u];
            while (a < offsets_[v + 1] && b < offsets_[u + 1]) {
                const auto x = targets_[a];
                const auto y = targets_[b];
                common += x == y;
                a += x <= y;
                b += y <= x;
            }
        }
    }
    return common;
}

double HostProbe::sample() {
    using Clock = std::chrono::steady_clock;
    std::vector<double> seconds;
    for (int i = 0; i < kRunsPerSample; ++i) {
        const auto start = Clock::now();
        sink_ += run_once();
        seconds.push_back(std::chrono::duration<double>(Clock::now() - start).count());
    }
    std::nth_element(seconds.begin(), seconds.begin() + kRunsPerSample / 2, seconds.end());
    return seconds[kRunsPerSample / 2];
}

}  // namespace katric::benchmark
