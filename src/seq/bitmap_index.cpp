#include "seq/bitmap_index.hpp"

#include <algorithm>
#include <bit>

#include "util/assert.hpp"
#include "util/bits.hpp"
#include "util/hash.hpp"

namespace katric::seq {

namespace {

constexpr std::uint64_t kWordBits = 64;

}  // namespace

std::size_t HubBitmapIndex::position(graph::VertexId id) const noexcept {
    if (slots_.empty()) { return 0; }
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = hash64(id) & mask;; i = (i + 1) & mask) {
        if (slots_[i].id == graph::kInvalidVertex) { return slots_.size(); }
        if (slots_[i].id == id) { return i; }
    }
}

HubBitmapIndex::Slot& HubBitmapIndex::insert(graph::VertexId id) {
    KATRIC_ASSERT(id != graph::kInvalidVertex);
    if (2 * (num_hubs_ + 1) > slots_.size()) {
        std::vector<Entry> old(std::max<std::size_t>(8, 2 * slots_.size()));
        old.swap(slots_);
        num_hubs_ = 0;
        for (const Entry& entry : old) {
            if (entry.id != graph::kInvalidVertex) { insert(entry.id) = entry.slot; }
        }
    }
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = hash64(id) & mask;
    while (slots_[i].id != graph::kInvalidVertex) { i = (i + 1) & mask; }
    slots_[i].id = id;
    ++num_hubs_;
    return slots_[i].slot;
}

void HubBitmapIndex::erase(std::size_t pos) noexcept {
    const std::size_t mask = slots_.size() - 1;
    std::size_t hole = pos;
    // Backward shift: pull each later entry of the run into the hole unless
    // its home slot lies cyclically in (hole, j], where it must stay.
    for (std::size_t j = (hole + 1) & mask; slots_[j].id != graph::kInvalidVertex;
         j = (j + 1) & mask) {
        const std::size_t home = hash64(slots_[j].id) & mask;
        const bool stays = hole <= j ? (hole < home && home <= j)
                                     : (hole < home || home <= j);
        if (stays) { continue; }
        slots_[hole] = slots_[j];
        hole = j;
    }
    slots_[hole] = {};
    --num_hubs_;
}

std::uint64_t HubBitmapIndex::build(const Config& config,
                                    std::span<const graph::VertexId> candidates,
                                    const RowProvider& rows) {
    clear();
    config_ = config;
    if (config.degree_threshold == 0 || config.max_hubs == 0 || config.universe == 0) {
        return 0;
    }
    words_per_row_ = katric::div_ceil(config.universe, kWordBits);

    // Selection: one degree scan over the candidates, then top-k by degree
    // among qualifiers. nth_element keeps this O(candidates).
    std::uint64_t ops = candidates.size();
    std::vector<std::pair<graph::Degree, graph::VertexId>> qualified;
    for (const graph::VertexId id : candidates) {
        const auto row = rows(id);
        if (row.size() >= config.degree_threshold) {
            qualified.emplace_back(static_cast<graph::Degree>(row.size()), id);
        }
    }
    if (qualified.size() > config.max_hubs) {
        std::nth_element(qualified.begin(),
                         qualified.begin() + static_cast<std::ptrdiff_t>(config.max_hubs),
                         qualified.end(), std::greater<>());
        qualified.resize(config.max_hubs);
    }
    // Deterministic slot layout regardless of nth_element's tie handling.
    std::sort(qualified.begin(), qualified.end(),
              [](const auto& x, const auto& y) { return x.second < y.second; });

    bits_.assign(qualified.size() * words_per_row_, 0);
    std::size_t next = 0;
    for (const auto& [degree, id] : qualified) {
        const auto row = rows(id);
        Slot& slot = insert(id);
        slot.index = next++;
        slot.data = row.data();
        slot.size = row.size();
        write_row(slot.index, row);
        ops += row.size();
    }
    refresh_min_indexed_row();
    return ops;
}

void HubBitmapIndex::refresh_min_indexed_row() noexcept {
    min_indexed_row_ = SIZE_MAX;
    for (const Entry& entry : slots_) {
        if (entry.id != graph::kInvalidVertex) {
            min_indexed_row_ = std::min(min_indexed_row_, entry.slot.size);
        }
    }
}

void HubBitmapIndex::write_row(std::size_t slot_index,
                               std::span<const graph::VertexId> row) {
    std::uint64_t* words = bits_.data() + slot_index * words_per_row_;
    std::fill(words, words + words_per_row_, 0);
    for (const graph::VertexId v : row) {
        KATRIC_ASSERT_MSG(v < config_.universe, "hub row element " << v
                                                    << " outside bitmap universe "
                                                    << config_.universe);
        words[v / kWordBits] |= std::uint64_t{1} << (v % kWordBits);
    }
}

const HubBitmapIndex::Slot* HubBitmapIndex::lookup(
    graph::VertexId id, std::span<const graph::VertexId> row) const noexcept {
    const std::size_t pos = position(id);
    if (pos == slots_.size()) { return nullptr; }
    const Slot& slot = slots_[pos].slot;
    return slot.data == row.data() && slot.size == row.size() ? &slot : nullptr;
}

bool HubBitmapIndex::test(const Slot& slot, graph::VertexId v) const noexcept {
    if (v >= config_.universe) { return false; }
    const std::uint64_t word = bits_[slot.index * words_per_row_ + v / kWordBits];
    return (word >> (v % kWordBits)) & 1;
}

IntersectResult HubBitmapIndex::intersect_count(
    const Slot& hub, std::span<const graph::VertexId> probe) const {
    IntersectResult result;
    result.ops = probe.size();
    for (const graph::VertexId v : probe) {
        if (test(hub, v)) { ++result.count; }
    }
    return result;
}

IntersectResult HubBitmapIndex::intersect_collect(
    const Slot& hub, std::span<const graph::VertexId> probe,
    std::vector<graph::VertexId>& out) const {
    IntersectResult result;
    result.ops = probe.size();
    for (const graph::VertexId v : probe) {
        if (test(hub, v)) {
            ++result.count;
            out.push_back(v);
        }
    }
    return result;
}

IntersectResult HubBitmapIndex::intersect_hub_hub(const Slot& s1, const Slot& s2) const {
    const std::uint64_t* w1 = bits_.data() + s1.index * words_per_row_;
    const std::uint64_t* w2 = bits_.data() + s2.index * words_per_row_;
    IntersectResult result;
    result.ops = words_per_row_;
    for (std::uint64_t w = 0; w < words_per_row_; ++w) {
        result.count += static_cast<std::uint64_t>(std::popcount(w1[w] & w2[w]));
    }
    return result;
}

void HubBitmapIndex::mark_dirty(graph::VertexId v) { dirty_.push_back(v); }

std::uint64_t HubBitmapIndex::rebuild_dirty(const RowProvider& rows) {
    if (config_.degree_threshold == 0 || words_per_row_ == 0) {
        // Never configured — nothing is indexed, nothing can go stale.
        dirty_.clear();
        return 0;
    }
    if (dirty_.empty()) { return 0; }
    std::sort(dirty_.begin(), dirty_.end());
    dirty_.erase(std::unique(dirty_.begin(), dirty_.end()), dirty_.end());
    std::uint64_t ops = dirty_.size();

    // One provider call per dirty row; both passes read the cached spans
    // (nothing mutates the underlying adjacency during a rebuild).
    std::vector<std::span<const graph::VertexId>> dirty_rows;
    dirty_rows.reserve(dirty_.size());
    for (const graph::VertexId v : dirty_) { dirty_rows.push_back(rows(v)); }

    // Pass 1: drop every dirty row that fell below the threshold. Freeing
    // capacity before any admission keeps the result independent of vertex-ID
    // order — a single-pass mix of drops and adds used to reject a
    // newly-qualifying row whenever its ID sorted ahead of the row whose
    // eviction would have made room, and the rejected row was then lost for
    // good once the dirty set was cleared.
    for (std::size_t i = 0; i < dirty_.size(); ++i) {
        const std::size_t pos = position(dirty_[i]);
        if (pos == slots_.size()) { continue; }
        if (dirty_rows[i].size() >= config_.degree_threshold) { continue; }
        const std::size_t index = slots_[pos].slot.index;
        free_slots_.push_back(index);
        // Zero the recycled row now so a future occupant starts clean.
        std::fill_n(bits_.begin() + static_cast<std::ptrdiff_t>(index * words_per_row_),
                    words_per_row_, 0);
        erase(pos);
    }

    // Pass 2: rewrite surviving rows and admit newly-qualifying ones into
    // the freed-up capacity.
    for (std::size_t i = 0; i < dirty_.size(); ++i) {
        const graph::VertexId v = dirty_[i];
        const auto row = dirty_rows[i];
        const std::size_t pos = position(v);
        Slot* slot = pos != slots_.size() ? &slots_[pos].slot : nullptr;
        if (slot == nullptr) {
            if (row.size() < config_.degree_threshold || num_hubs_ >= config_.max_hubs) {
                continue;
            }
            slot = &insert(v);
            if (!free_slots_.empty()) {
                slot->index = free_slots_.back();
                free_slots_.pop_back();
            } else {
                slot->index = bits_.size() / words_per_row_;
                bits_.resize(bits_.size() + words_per_row_, 0);
            }
        }
        write_row(slot->index, row);
        slot->data = row.data();
        slot->size = row.size();
        ops += row.size();
    }
    dirty_.clear();
    refresh_min_indexed_row();
    return ops;
}

void HubBitmapIndex::clear() {
    config_ = {};
    words_per_row_ = 0;
    min_indexed_row_ = SIZE_MAX;
    slots_.clear();
    num_hubs_ = 0;
    free_slots_.clear();
    bits_.clear();
    dirty_.clear();
}

}  // namespace katric::seq
