// HubBitmapIndex maintenance regressions: the dirty-set rebuild and full
// rebuild must compose in any order without leaving stale rows reachable —
// the invariant warm preprocessing reuse leans on (a query after a stream
// batch must never probe a hub row that no longer reflects the graph).

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <random>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "seq/bitmap_index.hpp"

namespace katric::seq {
namespace {

using graph::VertexId;

HubBitmapIndex::Config config_with(graph::Degree threshold, std::size_t max_hubs,
                                   VertexId universe) {
    HubBitmapIndex::Config config;
    config.degree_threshold = threshold;
    config.max_hubs = max_hubs;
    config.universe = universe;
    return config;
}

/// v ∈ row(hub), asked as a one-element intersection through the slot
/// indexed over `row`; false when no such slot exists.
bool in_row(const HubBitmapIndex& index, VertexId hub, std::span<const VertexId> row,
            VertexId v) {
    const auto* slot = index.lookup(hub, row);
    return slot != nullptr
           && index.intersect_count(*slot, std::span<const VertexId>(&v, 1)).count == 1;
}

/// mark_dirty → full rebuild → mark_dirty: the full rebuild re-reads every
/// candidate row, so pending dirty marks must be dropped (not replayed
/// against the new slot layout), and marks recorded after it must rebuild
/// against the new rows.
TEST(HubBitmapDirty, MarkDirtyFullRebuildMarkDirtySequence) {
    std::vector<std::vector<VertexId>> rows(3);
    rows[0] = {1, 3, 5, 7};
    rows[1] = {0, 2, 4, 6, 8};
    rows[2] = {1, 2};  // below threshold
    const auto provider = [&](VertexId id) {
        return std::span<const VertexId>(rows[id]);
    };
    const std::vector<VertexId> ids{0, 1, 2};

    HubBitmapIndex index;
    index.build(config_with(3, 4, 16), ids, provider);
    ASSERT_NE(index.lookup(0, rows[0]), nullptr);
    ASSERT_NE(index.lookup(1, rows[1]), nullptr);

    rows[0].push_back(9);
    index.mark_dirty(0);
    EXPECT_EQ(index.num_dirty(), 1u);

    // Full rebuild while marks are pending: re-reads every row itself.
    index.build(config_with(3, 4, 16), ids, provider);
    EXPECT_EQ(index.num_dirty(), 0u) << "build() owns a fresh view of every row";
    EXPECT_NE(index.lookup(0, rows[0]), nullptr);
    EXPECT_TRUE(in_row(index, 0, rows[0], 9));

    // Marks recorded after the rebuild update the new layout.
    rows[1].clear();
    rows[1] = {10, 12, 14};
    index.mark_dirty(1);
    index.rebuild_dirty(provider);
    EXPECT_NE(index.lookup(1, rows[1]), nullptr);
    EXPECT_TRUE(in_row(index, 1, rows[1], 12));
    EXPECT_FALSE(in_row(index, 1, rows[1], 2));

    // And a stale pre-rebuild row is structurally unreachable.
    const std::vector<VertexId> foreign{0, 2, 4, 6, 8};
    EXPECT_EQ(index.lookup(1, foreign), nullptr);
}

/// Regression for the single-pass drop/admit ordering defect: at capacity,
/// a newly-qualifying row whose ID sorts before the row being dropped used
/// to be rejected (no free slot yet) and then lost forever once the dirty
/// set was cleared. The rebuild must free capacity first.
TEST(HubBitmapDirty, AdmissionSeesCapacityFreedInTheSamePass) {
    std::vector<std::vector<VertexId>> rows(3);
    rows[1] = {0, 2, 4, 6};    // hub, will shrink below threshold
    rows[2] = {1, 3, 5, 7};    // hub, stays
    rows[0] = {};              // grows past threshold later; ID sorts FIRST
    const auto provider = [&](VertexId id) {
        return std::span<const VertexId>(rows[id]);
    };

    HubBitmapIndex index;
    const std::vector<VertexId> candidates{1, 2};
    index.build(config_with(3, /*max_hubs=*/2, 16), candidates, provider);
    ASSERT_EQ(index.num_hubs(), 2u);

    rows[0] = {8, 10, 12, 14};  // qualifies now
    rows[1] = {0};              // drops out
    index.mark_dirty(0);
    index.mark_dirty(1);
    index.rebuild_dirty(provider);

    // Two hubs, and they are rows 2 and 0: row 1 is out.
    EXPECT_EQ(index.num_hubs(), 2u);
    EXPECT_EQ(index.lookup(1, rows[1]), nullptr);
    EXPECT_NE(index.lookup(2, rows[2]), nullptr);
    EXPECT_NE(index.lookup(0, rows[0]), nullptr)
        << "vertex 0 must be admitted into the slot vertex 1 freed this pass";
    EXPECT_TRUE(in_row(index, 0, rows[0], 10));
    EXPECT_FALSE(in_row(index, 0, rows[0], 0)) << "the recycled slot must start clean";
}

/// Duplicate marks collapse to one rebuild of the row; the dirty set is
/// empty afterwards either way.
TEST(HubBitmapDirty, DuplicateMarksDedupe) {
    std::vector<VertexId> row{0, 2, 4, 6};
    const auto provider = [&](VertexId) { return std::span<const VertexId>(row); };
    HubBitmapIndex index;
    const std::vector<VertexId> candidates{0};
    index.build(config_with(3, 2, 16), candidates, provider);

    index.mark_dirty(0);
    index.mark_dirty(0);
    index.mark_dirty(0);
    EXPECT_EQ(index.num_dirty(), 3u);
    const auto ops = index.rebuild_dirty(provider);
    EXPECT_EQ(index.num_dirty(), 0u);
    // One dedup pass over the (deduped) set plus one row rewrite — tripling
    // the marks must not triple the charged work.
    EXPECT_EQ(ops, 1 + row.size());
}

TEST(HubBitmapDirty, RebuildOnUnconfiguredIndexIsANoOp) {
    HubBitmapIndex index;
    index.mark_dirty(3);
    EXPECT_EQ(index.rebuild_dirty([](VertexId) {
        return std::span<const VertexId>();
    }), 0u);
    EXPECT_EQ(index.num_dirty(), 0u);
}

/// min_indexed_row is the hot-path lookup gate: it must track builds, dirty
/// rebuilds (both growth and shrink), and clear().
TEST(HubBitmapDirty, MinIndexedRowTracksMaintenance) {
    std::vector<std::vector<VertexId>> rows(2);
    rows[0] = {0, 2, 4, 6};
    rows[1] = {1, 3, 5, 7, 9, 11};
    const auto provider = [&](VertexId id) {
        return std::span<const VertexId>(rows[id]);
    };
    HubBitmapIndex index;
    EXPECT_EQ(index.min_indexed_row(), SIZE_MAX);
    const std::vector<VertexId> candidates{0, 1};
    index.build(config_with(3, 4, 16), candidates, provider);
    EXPECT_EQ(index.min_indexed_row(), 4u);

    rows[0].push_back(8);
    index.mark_dirty(0);
    index.rebuild_dirty(provider);
    EXPECT_EQ(index.min_indexed_row(), 5u);

    rows[0] = {0};  // drops below threshold
    index.mark_dirty(0);
    index.rebuild_dirty(provider);
    EXPECT_EQ(index.min_indexed_row(), rows[1].size());

    index.clear();
    EXPECT_EQ(index.min_indexed_row(), SIZE_MAX);
}

TEST(HubBitmapDirty, LookupIsCoversPlusSlot) {
    std::vector<VertexId> row{1, 3, 5};
    const std::vector<VertexId> copy = row;
    const auto provider = [&](VertexId) { return std::span<const VertexId>(row); };
    HubBitmapIndex index;
    const std::vector<VertexId> candidates{0};
    index.build(config_with(2, 2, 8), candidates, provider);
    const auto* slot = index.lookup(0, row);
    ASSERT_NE(slot, nullptr);
    EXPECT_EQ(slot->size, row.size());
    EXPECT_EQ(slot->data, row.data());
    EXPECT_EQ(index.lookup(0, copy), nullptr) << "foreign storage must miss";
    EXPECT_EQ(index.lookup(1, row), nullptr) << "non-hub must miss";
    EXPECT_EQ(index.intersect_count(*slot, copy).count, row.size());
}

/// The index's admission rules over an ordered map from hub ID to the
/// (storage, length) its slot was built over: top-k by (degree, ID) at
/// build, drop-before-admit in ascending ID order at rebuild_dirty.
struct ReferenceIndex {
    graph::Degree threshold = 0;
    std::size_t max_hubs = 0;
    std::map<VertexId, std::pair<const VertexId*, std::size_t>> hubs;

    void build(std::span<const VertexId> candidates,
               const std::vector<std::vector<VertexId>>& rows) {
        hubs.clear();
        std::vector<std::pair<std::size_t, VertexId>> qualified;
        for (const VertexId id : candidates) {
            if (rows[id].size() >= threshold) {
                qualified.emplace_back(rows[id].size(), id);
            }
        }
        std::sort(qualified.begin(), qualified.end(), std::greater<>());
        if (qualified.size() > max_hubs) { qualified.resize(max_hubs); }
        for (const auto& [degree, id] : qualified) {
            hubs[id] = {rows[id].data(), degree};
        }
    }

    void rebuild(std::vector<VertexId> dirty,
                 const std::vector<std::vector<VertexId>>& rows) {
        std::sort(dirty.begin(), dirty.end());
        dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());
        for (const VertexId v : dirty) {
            if (rows[v].size() < threshold) { hubs.erase(v); }
        }
        for (const VertexId v : dirty) {
            if (hubs.contains(v)
                || (rows[v].size() >= threshold && hubs.size() < max_hubs)) {
                hubs[v] = {rows[v].data(), rows[v].size()};
            }
        }
    }
};

/// Random build / rebuild_dirty sequences that drop, admit and fill the
/// slot table to capacity, checked after every step against the reference:
/// every ID of the universe looks up exactly when the reference indexes it
/// over its current row, a hit's bitmap covers that row, and a same-content
/// copy of a hub row misses (span identity).
TEST(HubBitmapDirty, SlotTableAgreesWithAnOrderedMapReference) {
    constexpr VertexId kIds = 300;
    constexpr VertexId kUniverse = 512;
    for (const std::size_t max_hubs : {1, 4, 8, 70}) {
        SCOPED_TRACE("max_hubs " + std::to_string(max_hubs));
        std::mt19937_64 rng(max_hubs);
        std::vector<std::vector<VertexId>> rows(kIds);
        const auto refill = [&](VertexId id) {
            std::vector<VertexId> row;
            const std::size_t length = rng() % 13;
            while (row.size() < length) { row.push_back(rng() % kUniverse); }
            std::sort(row.begin(), row.end());
            row.erase(std::unique(row.begin(), row.end()), row.end());
            rows[id] = std::move(row);
        };
        for (VertexId id = 0; id < kIds; ++id) { refill(id); }
        const auto provider = [&](VertexId id) {
            return std::span<const VertexId>(rows[id]);
        };

        HubBitmapIndex index;
        ReferenceIndex reference;
        reference.threshold = 6;
        reference.max_hubs = max_hubs;
        for (int step = 0; step < 200; ++step) {
            SCOPED_TRACE("step " + std::to_string(step));
            if (step % 15 == 0) {
                std::vector<VertexId> candidates;
                for (VertexId id = 0; id < kIds; ++id) {
                    if (rng() % 3 != 0) { candidates.push_back(id); }
                }
                index.build(config_with(6, max_hubs, kUniverse), candidates, provider);
                reference.build(candidates, rows);
            } else {
                // Rewrite a few rows (often across the threshold), half of
                // them current hubs, and mark them and a few untouched rows
                // dirty.
                std::vector<VertexId> hubs;
                for (const auto& [id, storage] : reference.hubs) { hubs.push_back(id); }
                std::vector<VertexId> dirty;
                for (int k = 0; k < 12; ++k) {
                    const VertexId id = !hubs.empty() && rng() % 2 == 0
                                            ? hubs[rng() % hubs.size()]
                                            : static_cast<VertexId>(rng() % kIds);
                    if (rng() % 4 != 0) { refill(id); }
                    dirty.push_back(id);
                    index.mark_dirty(id);
                }
                index.rebuild_dirty(provider);
                reference.rebuild(dirty, rows);
            }
            ASSERT_EQ(index.num_hubs(), reference.hubs.size());
            std::size_t min_row = SIZE_MAX;
            for (const auto& [id, storage] : reference.hubs) {
                min_row = std::min(min_row, storage.second);
            }
            EXPECT_EQ(index.min_indexed_row(), min_row);
            for (VertexId id = 0; id < kIds + 20; ++id) {
                const auto row = id < kIds ? std::span<const VertexId>(rows[id])
                                           : std::span<const VertexId>();
                const auto it = reference.hubs.find(id);
                const bool expected = it != reference.hubs.end()
                                      && it->second.first == row.data()
                                      && it->second.second == row.size();
                const auto* slot = index.lookup(id, row);
                ASSERT_EQ(slot != nullptr, expected) << "id " << id;
                if (slot == nullptr) { continue; }
                EXPECT_EQ(index.intersect_count(*slot, row).count, row.size());
                const std::vector<VertexId> copy(row.begin(), row.end());
                EXPECT_EQ(index.lookup(id, copy), nullptr) << "copy of hub " << id;
            }
        }
    }
}

}  // namespace
}  // namespace katric::seq
