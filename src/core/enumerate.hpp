#pragma once

#include "core/runner.hpp"

namespace katric::core {

/// Triangle enumeration (Section IV-E: "since each triangle is found exactly
/// once, this can be easily generalized to the case of triangle
/// enumeration"). Each triangle is emitted by exactly one PE through a
/// TriangleSink; katric::Engine::enumerate collects the per-PE streams into
/// the canonicalized, sorted list of these.
struct Triangle {
    VertexId a;  // a < b < c (canonical form)
    VertexId b;
    VertexId c;

    friend constexpr auto operator<=>(const Triangle&, const Triangle&) = default;
};

}  // namespace katric::core
