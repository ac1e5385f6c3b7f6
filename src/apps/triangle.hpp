// Distributed triangle counting with actors — the paper's Algorithm 1 and
// the workload of its whole evaluation (§IV).
//
// Each PE owns the rows of the lower-triangular matrix L assigned by the
// data distribution. For every local vertex i and every neighbor pair
// (j, k) with k < j, an asynchronous message (j, k) goes to the owner of
// row j; the handler checks l_jk and bumps a local counter. The result is
// the all-reduce of the per-PE counters, validated against the serial
// reference (the paper validates "the number of triangles obtained by the
// application with the theoretical answer").
#pragma once

#include <cstdint>

#include "conveyor/conveyor.hpp"
#include "graph/csr.hpp"
#include "graph/distribution.hpp"

namespace ap::prof {
class Profiler;
}

namespace ap::apps {

struct TriangleResult {
  std::int64_t triangles = 0;
  /// Messages this PE sent / handled (from the actor runtime).
  std::uint64_t sends = 0;
  std::uint64_t handled = 0;
  /// Handler probes of L on this PE, and how many resumed from the
  /// previous probe (graph::EntryCursor).
  std::uint64_t probes = 0;
  std::uint64_t resumed_probes = 0;
};

/// Run the triangle-counting kernel on the calling PE (SPMD: every PE must
/// call with the same arguments). `lower` is the full L, shared read-only
/// in our single-process simulation; ownership is logical, dictated by
/// `dist`. If `profiler` is non-null, the kernel (and only the kernel) is
/// wrapped in a profiling epoch, matching §IV-D's scoping.
TriangleResult count_triangles_actor(const graph::Csr& lower,
                                     const graph::Distribution& dist,
                                     prof::Profiler* profiler = nullptr);

/// Variant with explicit conveyor options (buffer-size sweeps in benches).
TriangleResult count_triangles_actor(const graph::Csr& lower,
                                     const graph::Distribution& dist,
                                     const convey::Options& conveyor_options,
                                     prof::Profiler* profiler);

}  // namespace ap::apps
