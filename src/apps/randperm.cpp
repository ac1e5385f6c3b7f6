#include "apps/randperm.hpp"

#include <algorithm>

#include "actor/selector.hpp"
#include "core/profiler.hpp"
#include "graph/rmat.hpp"  // SplitMix64
#include "runtime/finish.hpp"
#include "shmem/shmem.hpp"

namespace ap::apps {

namespace {
struct Dart {
  std::int64_t value;
  std::int64_t slot;  // global board slot
};

/// Board slots per value. With at least half of the board free, every
/// throw sticks with probability 1/2 or more, so the last dart lands within
/// O(log N) rounds; a board exactly N slots long leaves one free slot for
/// the last dart, which then takes about N rounds to find it.
constexpr std::size_t kBoardSlack = 2;
}  // namespace

RandPermResult random_permutation_actor(std::size_t per_pe,
                                        std::uint64_t seed,
                                        prof::Profiler* profiler) {
  const int me = shmem::my_pe();
  const int n = shmem::n_pes();
  const std::int64_t total =
      static_cast<std::int64_t>(per_pe) * static_cast<std::int64_t>(n);
  const auto board_size = static_cast<std::int64_t>(kBoardSlack) * total;

  RandPermResult r;
  // This PE's board slice: slot t lives at t/n on PE t%n.
  std::vector<std::int64_t> board(kBoardSlack * per_pe, -1);

  // The values this PE must place (cyclic ownership of the value space).
  std::vector<std::int64_t> pending;
  for (std::int64_t v = me; v < total; v += n) pending.push_back(v);

  graph::SplitMix64 rng(seed ^ (static_cast<std::uint64_t>(me) * 0x51ED270Bull));

  shmem::barrier_all();
  if (profiler != nullptr) profiler->epoch_begin();

  // Round-based dart throwing: each round is one FA-BSP superstep; darts
  // rejected (slot already taken) are re-thrown next round.
  for (;;) {
    const std::int64_t remaining =
        shmem::sum_reduce(static_cast<std::int64_t>(pending.size()));
    if (remaining == 0) break;

    std::vector<std::int64_t> rejected;
    actor::Selector<2, Dart> sel;
    sel.mb[0].process = [&](Dart d, int sender_rank) {
      const auto idx = static_cast<std::size_t>(d.slot / n);
      if (board[idx] < 0) {
        board[idx] = d.value;  // dart sticks
      } else {
        sel.send(1, d, sender_rank);  // bounce it back
      }
    };
    sel.mb[1].process = [&](Dart d, int) {
      rejected.push_back(d.value);
      ++r.rejections;
    };
    hclib::finish([&] {
      sel.start();
      for (std::int64_t v : pending) {
        const auto t = static_cast<std::int64_t>(
            rng.next_below(static_cast<std::uint64_t>(board_size)));
        sel.send(0, Dart{v, t}, static_cast<int>(t % n));
        ++r.darts_thrown;
      }
      sel.done(0);
    });
    pending = std::move(rejected);
  }

  // The permutation reads the stuck darts in PE-major board order: this
  // PE's first one goes to position `pos`, the count stuck on lower PEs.
  // Position p lives on PE p%n at index p/n.
  const auto stuck = static_cast<std::int64_t>(
      std::count_if(board.begin(), board.end(),
                    [](std::int64_t v) { return v >= 0; }));
  shmem::SymmArray<std::int64_t> stuck_on(static_cast<std::size_t>(n));
  shmem::SymmArray<std::int64_t> perm(per_pe);
  shmem::barrier_all();  // both exist on every PE before any put lands
  for (int pe = 0; pe < n; ++pe)
    shmem::put(&stuck_on[static_cast<std::size_t>(me)], &stuck, sizeof stuck,
               pe);
  shmem::barrier_all();
  std::int64_t pos = 0;
  for (int pe = 0; pe < me; ++pe) pos += stuck_on[static_cast<std::size_t>(pe)];
  for (const std::int64_t v : board) {
    if (v < 0) continue;
    shmem::put(&perm[static_cast<std::size_t>(pos / n)], &v, sizeof v,
               static_cast<int>(pos % n));
    ++pos;
  }

  if (profiler != nullptr) profiler->epoch_end();
  shmem::barrier_all();
  r.local_perm.resize(per_pe);
  for (std::size_t s = 0; s < per_pe; ++s) r.local_perm[s] = perm[s];
  return r;
}

}  // namespace ap::apps
