// Distributed random permutation — bale's "randperm" kernel, the classic
// dart-board algorithm: every PE throws darts (candidate values) at random
// slots of a distributed board twice as long as the permutation; the slot
// owner accepts the first dart and rejects the rest, and rejected darts are
// re-thrown. The permutation is the stuck darts read in board order. A
// two-mailbox request/reply selector with data-dependent retries — heavier
// on the termination protocol than histogram or ig.
#pragma once

#include <cstdint>
#include <vector>

namespace ap::prof {
class Profiler;
}

namespace ap::apps {

struct RandPermResult {
  /// This PE's slice of the permutation: slot s holds perm[s * n_pes + me].
  std::vector<std::int64_t> local_perm;
  std::uint64_t darts_thrown = 0;  // includes re-throws
  std::uint64_t rejections = 0;
};

/// SPMD. Builds a random permutation of [0, n_pes*per_pe) distributed
/// cyclically. Deterministic for a given seed.
RandPermResult random_permutation_actor(std::size_t per_pe,
                                        std::uint64_t seed = 0x9E3779B9,
                                        prof::Profiler* profiler = nullptr);

}  // namespace ap::apps
