#include "apps/triangle.hpp"

#include "actor/selector.hpp"
#include "core/profiler.hpp"
#include "papi/papi.hpp"
#include "runtime/finish.hpp"
#include "shmem/shmem.hpp"

namespace ap::apps {

namespace {

/// Message of Algorithm 1: "does edge l_jk exist?" Packed as two 32-bit
/// halves — the paper stresses that FA-BSP messages are 8–32 bytes.
struct EdgeQuery {
  std::int32_t j;
  std::int32_t k;
};

class TriangleActor final : public actor::Actor<EdgeQuery> {
 public:
  TriangleActor(const graph::Csr& lower, std::int64_t* counter,
                const convey::Options& opts)
      : actor::Actor<EdgeQuery>(opts),
        footprint_(lower.num_entries() * sizeof(graph::Vertex)),
        cursor_(lower),
        counter_(counter) {
    mb[0].process = [this](EdgeQuery q, int sender_rank) {
      (void)sender_rank;
      // ACTORPROCESS(j, k): if l_jk exists, count one triangle. The probe
      // of row j is charged to the cost model as one irregular access over
      // this PE's share of L, whether or not the cursor resumes.
      papi::account_random_access(footprint_, 1);
      if (cursor_.probe(q.j, q.k)) ++*counter_;
    };
  }

  [[nodiscard]] const graph::EntryCursor& cursor() const { return cursor_; }

 private:
  std::size_t footprint_;
  graph::EntryCursor cursor_;
  std::int64_t* counter_;
};

}  // namespace

TriangleResult count_triangles_actor(const graph::Csr& lower,
                                     const graph::Distribution& dist,
                                     prof::Profiler* profiler) {
  return count_triangles_actor(lower, dist, convey::Options{}, profiler);
}

TriangleResult count_triangles_actor(const graph::Csr& lower,
                                     const graph::Distribution& dist,
                                     const convey::Options& conveyor_options,
                                     prof::Profiler* profiler) {
  const int me = shmem::my_pe();
  const graph::Vertex n = lower.num_vertices();

  std::int64_t local_count = 0;
  TriangleActor triangle_actor(lower, &local_count, conveyor_options);

  shmem::barrier_all();
  if (profiler != nullptr) profiler->epoch_begin();

  hclib::finish([&] {
    triangle_actor.start();
    for (graph::Vertex i = 0; i < n; ++i) {
      if (dist.owner(i) != me) continue;
      const auto ni = lower.neighbors(i);
      papi::account_loop_iters(ni.size());
      // Two distinct neighbors l_ij, l_ik with k < j.
      for (std::size_t a = 1; a < ni.size(); ++a) {
        const graph::Vertex j = ni[a];
        const int pe = dist.owner(j);  // FINDOWNER(l_jk): row owner of j
        for (std::size_t b = 0; b < a; ++b) {
          const graph::Vertex k = ni[b];
          triangle_actor.send(EdgeQuery{static_cast<std::int32_t>(j),
                                        static_cast<std::int32_t>(k)},
                              pe);
        }
      }
    }
    triangle_actor.done(0);
  });

  if (profiler != nullptr) profiler->epoch_end();
  shmem::barrier_all();

  TriangleResult r;
  r.triangles = shmem::sum_reduce(local_count);
  r.sends = triangle_actor.conveyor(0).stats().pushed;
  r.handled = triangle_actor.handled(0);
  r.probes = triangle_actor.cursor().probes();
  r.resumed_probes = triangle_actor.cursor().resumed();
  return r;
}

}  // namespace ap::apps
