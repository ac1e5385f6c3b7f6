#include "apps/jaccard.hpp"

#include "actor/selector.hpp"
#include "core/profiler.hpp"
#include "papi/papi.hpp"
#include "runtime/finish.hpp"
#include "shmem/shmem.hpp"

namespace ap::apps {

namespace {

struct WedgeQuery {
  std::int32_t j;
  std::int32_t k;
  std::int32_t reply_slot;
  std::int32_t pad = 0;
};

/// mb0: "does l_jk exist?" answered by the owner of row j; a hit is
/// replied on mb1, which increments the asker's per-edge counter.
class JaccardSelector final : public actor::Selector<2, WedgeQuery> {
 public:
  JaccardSelector(const graph::Csr& lower,
                  std::vector<std::uint32_t>* common)
      : footprint_(lower.num_entries() * sizeof(graph::Vertex)),
        cursor_(lower),
        common_(common) {
    mb[0].process = [this](WedgeQuery q, int sender_rank) {
      papi::account_random_access(footprint_, 1);
      if (cursor_.probe(q.j, q.k)) send(1, q, sender_rank);
    };
    mb[1].process = [this](WedgeQuery q, int) {
      (*common_)[static_cast<std::size_t>(q.reply_slot)]++;
    };
  }

 private:
  std::size_t footprint_;
  graph::EntryCursor cursor_;
  std::vector<std::uint32_t>* common_;
};

}  // namespace

std::vector<double> jaccard_serial(const graph::Csr& lower) {
  std::vector<double> out;
  for (graph::Vertex i = 0; i < lower.num_vertices(); ++i) {
    const auto ni = lower.neighbors(i);
    for (graph::Vertex j : ni) {
      const auto nj = lower.neighbors(j);
      std::size_t x = 0, y = 0, common = 0;
      while (x < ni.size() && y < nj.size()) {
        if (ni[x] < nj[y]) {
          ++x;
        } else if (ni[x] > nj[y]) {
          ++y;
        } else {
          ++common;
          ++x;
          ++y;
        }
      }
      const double uni = static_cast<double>(ni.size() + nj.size() - common);
      out.push_back(uni == 0 ? 0.0 : static_cast<double>(common) / uni);
    }
  }
  return out;
}

JaccardResult jaccard_actor(const graph::Csr& lower,
                            const graph::Distribution& dist,
                            prof::Profiler* profiler) {
  const int me = shmem::my_pe();
  const graph::Vertex n = lower.num_vertices();

  // Enumerate this PE's edges (row asc, neighbor asc) -> reply slots.
  std::vector<std::pair<graph::Vertex, graph::Vertex>> edges;  // (i, j)
  for (graph::Vertex i = 0; i < n; ++i) {
    if (dist.owner(i) != me) continue;
    for (graph::Vertex j : lower.neighbors(i)) edges.emplace_back(i, j);
  }
  std::vector<std::uint32_t> common(edges.size(), 0);

  JaccardSelector sel(lower, &common);
  shmem::barrier_all();
  if (profiler != nullptr) profiler->epoch_begin();

  std::uint64_t sent = 0;
  hclib::finish([&] {
    sel.start();
    std::size_t slot = 0;
    for (graph::Vertex i = 0; i < n; ++i) {
      if (dist.owner(i) != me) continue;
      const auto ni = lower.neighbors(i);
      papi::account_loop_iters(ni.size());
      // Slots for this row: neighbors in order.
      for (std::size_t a = 0; a < ni.size(); ++a, ++slot) {
        const graph::Vertex j = ni[a];
        const int pe = dist.owner(j);
        // Common neighbors k of the edge (i, j) satisfy k < j and l_ik=1;
        // ask owner(j) whether l_jk exists for each candidate k.
        for (std::size_t b = 0; b < a; ++b) {
          const graph::Vertex k = ni[b];
          if (k >= j) break;  // neighbors are sorted; k must be < j
          sel.send(0,
                   WedgeQuery{static_cast<std::int32_t>(j),
                              static_cast<std::int32_t>(k),
                              static_cast<std::int32_t>(slot)},
                   pe);
          ++sent;
        }
      }
    }
    sel.done(0);
    // mb1 (replies) terminates via dependent-mailbox chaining.
  });

  if (profiler != nullptr) profiler->epoch_end();
  shmem::barrier_all();

  JaccardResult r;
  r.wedge_messages = sent;
  r.local_similarity.reserve(edges.size());
  for (std::size_t s = 0; s < edges.size(); ++s) {
    const auto [i, j] = edges[s];
    const double uni = static_cast<double>(lower.degree(i) +
                                           lower.degree(j) - common[s]);
    r.local_similarity.push_back(
        uni == 0 ? 0.0 : static_cast<double>(common[s]) / uni);
  }
  return r;
}

}  // namespace ap::apps
