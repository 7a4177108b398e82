#pragma once

#include <gtest/gtest.h>

#include <string>

#include "core/algorithm.hpp"
#include "report.hpp"

namespace katric::test {

/// Field-by-field equality of two CountResults — the bit-identical
/// reuse-equivalence check shared by the Engine and warm-Engine suites.
/// Extend this ONE helper when CountResult grows a metric.
inline void expect_identical_counts(const core::CountResult& a,
                                    const core::CountResult& b,
                                    const std::string& what) {
    EXPECT_EQ(a.triangles, b.triangles) << what;
    EXPECT_EQ(a.oom, b.oom) << what;
    EXPECT_EQ(a.error, b.error) << what;
    EXPECT_EQ(a.total_time, b.total_time) << what;
    EXPECT_EQ(a.preprocessing_time, b.preprocessing_time) << what;
    EXPECT_EQ(a.local_time, b.local_time) << what;
    EXPECT_EQ(a.contraction_time, b.contraction_time) << what;
    EXPECT_EQ(a.global_time, b.global_time) << what;
    EXPECT_EQ(a.reduce_time, b.reduce_time) << what;
    EXPECT_EQ(a.max_messages_sent, b.max_messages_sent) << what;
    EXPECT_EQ(a.max_words_sent, b.max_words_sent) << what;
    EXPECT_EQ(a.total_messages_sent, b.total_messages_sent) << what;
    EXPECT_EQ(a.total_words_sent, b.total_words_sent) << what;
    EXPECT_EQ(a.max_peak_buffer_words, b.max_peak_buffer_words) << what;
    EXPECT_EQ(a.local_phase_triangles, b.local_phase_triangles) << what;
    EXPECT_EQ(a.global_phase_triangles, b.global_phase_triangles) << what;
}

/// Field-by-field Report equality, covering every payload a static query
/// kind fills — the serving and one-shot-reference analogue of
/// expect_identical_counts.
inline void expect_identical_reports(const Report& a, const Report& b,
                                     const std::string& what) {
    EXPECT_EQ(a.query, b.query) << what;
    EXPECT_EQ(a.algorithm, b.algorithm) << what;
    EXPECT_EQ(a.error, b.error) << what;
    EXPECT_EQ(a.error.message, b.error.message) << what;
    expect_identical_counts(a.count, b.count, what);
    EXPECT_EQ(a.total_compute_ops, b.total_compute_ops) << what;
    EXPECT_EQ(a.max_compute_ops, b.max_compute_ops) << what;
    EXPECT_EQ(a.reused_preprocessing, b.reused_preprocessing) << what;
    ASSERT_EQ(a.phases.size(), b.phases.size()) << what;
    for (std::size_t i = 0; i < a.phases.size(); ++i) {
        EXPECT_EQ(a.phases[i].name, b.phases[i].name) << what;
        EXPECT_EQ(a.phases[i].seconds, b.phases[i].seconds) << what;
        EXPECT_EQ(a.phases[i].supersteps, b.phases[i].supersteps) << what;
        EXPECT_EQ(a.phases[i].messages_sent, b.phases[i].messages_sent) << what;
        EXPECT_EQ(a.phases[i].words_sent, b.phases[i].words_sent) << what;
    }
    EXPECT_EQ(a.delta, b.delta) << what;
    EXPECT_EQ(a.lcc, b.lcc) << what;
    EXPECT_EQ(a.triangles.size(), b.triangles.size()) << what;
    EXPECT_TRUE(a.triangles == b.triangles) << what;
    EXPECT_EQ(a.found_per_rank, b.found_per_rank) << what;
    EXPECT_EQ(a.estimated_triangles, b.estimated_triangles) << what;
    EXPECT_EQ(a.exact_type12, b.exact_type12) << what;
    EXPECT_EQ(a.estimated_type3, b.estimated_type3) << what;
    EXPECT_EQ(a.postprocess_time, b.postprocess_time) << what;
}

}  // namespace katric::test
