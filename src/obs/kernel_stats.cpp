#include "obs/kernel_stats.hpp"

#include <bit>
#include <sstream>

namespace katric::obs {

std::string kernel_choice_name(KernelChoice choice) {
    switch (choice) {
        case KernelChoice::kMerge: return "merge";
        case KernelChoice::kBinary: return "binary";
        case KernelChoice::kHybrid: return "hybrid";
        case KernelChoice::kGalloping: return "galloping";
        case KernelChoice::kSimdMerge: return "simd_merge";
        case KernelChoice::kBitmapHubHub: return "bitmap_hub_hub";
        case KernelChoice::kBitmapProbe: return "bitmap_probe";
    }
    return "unknown";
}

std::size_t kernel_size_bucket(std::size_t smaller_size) noexcept {
    const auto bucket = static_cast<std::size_t>(std::bit_width(smaller_size));
    return bucket < KernelStats::kBuckets ? bucket : KernelStats::kBuckets - 1;
}

std::string kernel_size_bucket_label(std::size_t bucket) {
    if (bucket == 0) { return "0"; }
    std::ostringstream out;
    const std::uint64_t lo = 1ULL << (bucket - 1);
    if (bucket + 1 >= KernelStats::kBuckets) {
        out << '[' << lo << ",inf)";
    } else {
        out << '[' << lo << ',' << ((1ULL << bucket) - 1) << ']';
    }
    return out.str();
}

void KernelStats::record(KernelChoice choice, std::size_t smaller_size) noexcept {
    ++dispatch[static_cast<std::size_t>(choice)][kernel_size_bucket(smaller_size)];
}

void KernelStats::merge(const KernelStats& other) noexcept {
    for (std::size_t c = 0; c < kNumKernelChoices; ++c) {
        for (std::size_t b = 0; b < kBuckets; ++b) { dispatch[c][b] += other.dispatch[c][b]; }
    }
    hub_hits += other.hub_hits;
    hub_misses += other.hub_misses;
}

void KernelStats::reset() noexcept { *this = KernelStats{}; }

KernelStats KernelStatsByRank::merged() const noexcept {
    KernelStats total;
    for (const Sink& sink : sinks_) { total.merge(sink.stats); }
    return total;
}

std::uint64_t KernelStats::total() const noexcept {
    std::uint64_t sum = 0;
    for (std::size_t c = 0; c < kNumKernelChoices; ++c) {
        sum += total(static_cast<KernelChoice>(c));
    }
    return sum;
}

std::uint64_t KernelStats::total(KernelChoice choice) const noexcept {
    std::uint64_t sum = 0;
    for (std::uint64_t count : dispatch[static_cast<std::size_t>(choice)]) { sum += count; }
    return sum;
}

double KernelStats::hub_hit_rate() const noexcept {
    const std::uint64_t probes = hub_hits + hub_misses;
    return probes == 0 ? 0.0
                       : static_cast<double>(hub_hits) / static_cast<double>(probes);
}

std::string KernelStats::to_string() const {
    std::ostringstream out;
    for (std::size_t c = 0; c < kNumKernelChoices; ++c) {
        const auto choice = static_cast<KernelChoice>(c);
        if (total(choice) == 0) { continue; }
        out << kernel_choice_name(choice) << ": " << total(choice) << '\n';
        for (std::size_t b = 0; b < kBuckets; ++b) {
            if (dispatch[c][b] == 0) { continue; }
            out << "  " << kernel_size_bucket_label(b) << ": " << dispatch[c][b] << '\n';
        }
    }
    if (hub_hits + hub_misses > 0) {
        out << "hub bitmap: " << hub_hits << " hits, " << hub_misses << " misses ("
            << hub_hit_rate() * 100.0 << "% hit rate)\n";
    }
    return out.str();
}

}  // namespace katric::obs
