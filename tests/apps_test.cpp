// End-to-end application tests: every FA-BSP kernel validated against a
// serial reference, across PE shapes and distributions.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <set>
#include <utility>
#include <vector>

#include "apps/bfs.hpp"
#include "apps/histogram.hpp"
#include "apps/index_gather.hpp"
#include "apps/pagerank.hpp"
#include "apps/triangle.hpp"
#include "conveyor/conveyor.hpp"
#include "graph/csr.hpp"
#include "graph/distribution.hpp"
#include "graph/rmat.hpp"
#include "shmem/shmem.hpp"

namespace {

namespace shmem = ap::shmem;
using namespace ap::graph;
using namespace ap::apps;

ap::rt::LaunchConfig cfg_of(int pes, int ppn = 0) {
  ap::rt::LaunchConfig cfg;
  cfg.num_pes = pes;
  cfg.pes_per_node = ppn;
  cfg.symm_heap_bytes = 16 << 20;
  return cfg;
}

RmatParams graph_params(int scale, std::uint64_t seed = 42) {
  RmatParams p;
  p.scale = scale;
  p.edge_factor = 8;
  p.seed = seed;
  return p;
}

// ------------------------------------------------------------- histogram

TEST(Histogram, AllUpdatesLand) {
  shmem::run(cfg_of(4, 2), [] {
    const auto r = histogram_actor(64, 1000);
    EXPECT_EQ(r.global_updates, 4 * 1000);
    EXPECT_EQ(r.sends, 1000u);
  });
}

TEST(Histogram, DeterministicAcrossRuns) {
  std::vector<std::int64_t> first, second;
  shmem::run(cfg_of(2, 2), [&first] {
    const auto r = histogram_actor(32, 500, 99);
    if (shmem::my_pe() == 0) first = r.local_buckets;
  });
  shmem::run(cfg_of(2, 2), [&second] {
    const auto r = histogram_actor(32, 500, 99);
    if (shmem::my_pe() == 0) second = r.local_buckets;
  });
  EXPECT_EQ(first, second);
}

// ---------------------------------------------------------- index gather

TEST(IndexGather, EveryValueCorrect) {
  shmem::run(cfg_of(4, 2), [] {
    const std::size_t table_per_pe = 128, reqs = 500;
    const auto r = index_gather_actor(table_per_pe, reqs, 7);
    EXPECT_EQ(r.values.size(), reqs);
    EXPECT_EQ(r.requests, reqs);
    // Reconstruct the expected values from the same RNG stream.
    SplitMix64 rng(7ull ^ (static_cast<std::uint64_t>(shmem::my_pe()) << 32));
    const std::uint64_t global =
        static_cast<std::uint64_t>(shmem::n_pes()) * table_per_pe;
    for (std::size_t i = 0; i < reqs; ++i) {
      const std::uint64_t g = rng.next_below(global);
      EXPECT_EQ(r.values[i], 3 * static_cast<std::int64_t>(g) + 1)
          << "request " << i;
    }
  });
}

TEST(IndexGather, WorksWithOnePe) {
  shmem::run(cfg_of(1), [] {
    const auto r = index_gather_actor(16, 50);
    for (std::size_t i = 0; i < r.values.size(); ++i)
      EXPECT_EQ((r.values[i] - 1) % 3, 0);
  });
}

// ------------------------------------------------------------------- BFS

TEST(Bfs, MatchesSerialLevels) {
  const auto edges = rmat_edges(graph_params(8));
  const Csr adj = Csr::from_edges(1 << 8, edges, false);
  const auto serial = bfs_serial(adj, 0);
  shmem::run(cfg_of(4, 2), [&adj, &serial] {
    const auto r = bfs_actor(adj, 0);
    const int me = shmem::my_pe();
    const int n = shmem::n_pes();
    for (std::size_t s = 0; s < r.local_level.size(); ++s) {
      const auto v = static_cast<std::size_t>(me) + s * static_cast<std::size_t>(n);
      EXPECT_EQ(r.local_level[s], serial[v]) << "vertex " << v;
    }
  });
}

TEST(Bfs, ReachedAndLevelsMatchSerial) {
  const auto edges = rmat_edges(graph_params(9, 3));
  const Csr adj = Csr::from_edges(1 << 9, edges, false);
  const auto serial = bfs_serial(adj, 5);
  std::int64_t serial_reached = 0, serial_levels = 0;
  for (std::int64_t l : serial) {
    if (l >= 0) {
      ++serial_reached;
      serial_levels = std::max(serial_levels, l + 1);
    }
  }
  shmem::run(cfg_of(8, 4), [&] {
    const auto r = bfs_actor(adj, 5);
    EXPECT_EQ(r.reached, serial_reached);
    EXPECT_EQ(r.levels, serial_levels);
  });
}

// -------------------------------------------------------------- PageRank

TEST(PageRank, MatchesSerial) {
  const auto edges = rmat_edges(graph_params(8, 11));
  const Csr adj = Csr::from_edges(1 << 8, edges, false);
  PageRankOptions opts;
  opts.iterations = 10;
  const auto serial = pagerank_serial(adj, opts);
  shmem::run(cfg_of(4, 2), [&] {
    const auto r = pagerank_actor(adj, opts);
    EXPECT_NEAR(r.global_sum, 1.0, 1e-9);
    const int me = shmem::my_pe();
    const int n = shmem::n_pes();
    for (std::size_t s = 0; s < r.local_rank.size(); ++s) {
      const auto v = static_cast<std::size_t>(me) + s * static_cast<std::size_t>(n);
      EXPECT_NEAR(r.local_rank[s], serial[v], 1e-12) << "vertex " << v;
    }
  });
}

TEST(PageRank, SumStaysOneAcrossShapes) {
  const auto edges = rmat_edges(graph_params(7, 2));
  const Csr adj = Csr::from_edges(1 << 7, edges, false);
  for (auto [pes, ppn] : {std::pair{1, 0}, {2, 2}, {8, 4}}) {
    shmem::run(cfg_of(pes, ppn), [&] {
      const auto r = pagerank_actor(adj);
      EXPECT_NEAR(r.global_sum, 1.0, 1e-9);
    });
  }
}

// -------------------------------------------------------------- triangles

class TriangleSweep
    : public ::testing::TestWithParam<std::tuple<int, int, DistKind>> {};

TEST_P(TriangleSweep, MatchesSerialReference) {
  const auto [pes, ppn, kind] = GetParam();
  const auto edges = rmat_edges(graph_params(8, 5));
  const Csr L = Csr::from_edges(1 << 8, edges, true);
  const std::int64_t expected = count_triangles_serial(L);
  ASSERT_GT(expected, 0);  // the graph must actually have triangles
  shmem::run(cfg_of(pes, ppn), [&L, kind, expected] {
    const auto dist = make_distribution(kind, shmem::n_pes(), L);
    const auto r = count_triangles_actor(L, *dist);
    EXPECT_EQ(r.triangles, expected);
  });
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TriangleSweep,
    ::testing::Values(
        std::tuple{1, 0, DistKind::Cyclic1D},
        std::tuple{4, 4, DistKind::Cyclic1D},
        std::tuple{4, 4, DistKind::Range1D},
        std::tuple{4, 2, DistKind::Cyclic1D},
        std::tuple{4, 2, DistKind::Range1D},
        std::tuple{8, 4, DistKind::Cyclic1D},
        std::tuple{8, 4, DistKind::Range1D},
        std::tuple{8, 4, DistKind::Block1D},
        std::tuple{16, 16, DistKind::Cyclic1D},
        std::tuple{16, 16, DistKind::Range1D},
        std::tuple{16, 8, DistKind::Range1D}));

TEST(Triangle, SendCountsMatchAlgorithm) {
  // Algorithm 1 sends one message per (j,k) wedge of every local vertex:
  // sum over owned i of C(deg(i), 2).
  const auto edges = rmat_edges(graph_params(7, 9));
  const Csr L = Csr::from_edges(1 << 7, edges, true);
  shmem::run(cfg_of(4, 4), [&L] {
    CyclicDistribution dist(shmem::n_pes());
    const auto r = count_triangles_actor(L, dist);
    std::uint64_t wedges = 0;
    for (Vertex i = 0; i < L.num_vertices(); ++i) {
      if (dist.owner(i) != shmem::my_pe()) continue;
      const std::uint64_t d = L.degree(i);
      wedges += d * (d - 1) / 2;
    }
    EXPECT_EQ(r.sends, wedges);
    const std::int64_t total_sends =
        shmem::sum_reduce(static_cast<std::int64_t>(r.sends));
    const std::int64_t total_handled =
        shmem::sum_reduce(static_cast<std::int64_t>(r.handled));
    EXPECT_EQ(total_sends, total_handled);
  });
}

TEST(Triangle, RangeAndCyclicAgreeOnBiggerGraph) {
  const auto edges = rmat_edges(graph_params(10, 21));
  const Csr L = Csr::from_edges(1 << 10, edges, true);
  const std::int64_t expected = count_triangles_serial(L);
  shmem::run(cfg_of(16, 8), [&L, expected] {
    CyclicDistribution cyc(shmem::n_pes());
    RangeDistribution rng(shmem::n_pes(), L);
    EXPECT_EQ(count_triangles_actor(L, cyc).triangles, expected);
    EXPECT_EQ(count_triangles_actor(L, rng).triangles, expected);
  });
}

// The handler probes L through a cursor that resumes from the previous
// probe of the same row. Per-source FIFO delivery and the senders'
// ascending inner loops make nearly every probe a resume on the case
// study's shape (R-MAT 12/16, 16 PEs on 1 node, Cyclic; 96.7% measured).
TEST(Triangle, CaseStudyProbesResumeFromThePreviousProbe) {
  RmatParams p;
  p.scale = 12;
  p.edge_factor = 16;
  p.permute_vertices = false;
  const Csr L = Csr::from_edges(Vertex{1} << p.scale, rmat_edges(p), true);
  ap::rt::LaunchConfig lc;
  lc.num_pes = 16;
  lc.pes_per_node = 16;
  // Fiber only: the share depends on the order batches are delivered in,
  // which the threads backend does not fix.
  lc.backend = ap::rt::Backend::fiber;
  std::vector<TriangleResult> per_pe(16);
  shmem::run(lc, [&L, &per_pe] {
    CyclicDistribution dist(shmem::n_pes());
    ap::convey::Options opts;
    opts.buffer_bytes = 1024;
    per_pe[static_cast<std::size_t>(shmem::my_pe())] =
        count_triangles_actor(L, dist, opts, nullptr);
  });
  std::uint64_t handled = 0, probes = 0, resumed = 0;
  for (const TriangleResult& r : per_pe) {
    handled += r.handled;
    probes += r.probes;
    resumed += r.resumed_probes;
  }
  EXPECT_EQ(per_pe[0].triangles, count_triangles_serial(L));
  EXPECT_EQ(probes, handled);  // one probe per handled message
  EXPECT_GE(10 * resumed, 9 * probes)
      << resumed << " of " << probes << " probes resumed";
}

// A delivery pass visits only the sources whose doorbell rang, and each
// visit consumes at least one buffer, so visits never outnumber the
// buffers sent. A scan of every source each pass made ~68 visits per
// buffer on the case study.
TEST(Triangle, DeliveryVisitsOnlySourcesThatPublished) {
  const auto edges = rmat_edges(graph_params(9, 5));
  const Csr L = Csr::from_edges(1 << 9, edges, true);
  // 8 PEs: dense endpoints; 80 PEs: compact ones (slots in announcement
  // order). Both on 2+ nodes, so Mesh2D forwards and nbi puts publish.
  for (const auto& [pes, ppn] : {std::pair{8, 4}, std::pair{80, 8}}) {
    SCOPED_TRACE(pes);
    ap::rt::LaunchConfig lc = cfg_of(pes, ppn);
    // Fiber only: under threads a source can ring after a pass already
    // consumed the buffer its ring announces, so a visit may find nothing.
    lc.backend = ap::rt::Backend::fiber;
    const ap::convey::ConveyorStats before = ap::convey::lifetime_totals();
    shmem::run(lc, [&L] {
      CyclicDistribution dist(shmem::n_pes());
      (void)count_triangles_actor(L, dist);
    });
    const ap::convey::ConveyorStats after = ap::convey::lifetime_totals();
    const std::uint64_t visits = after.deliver_visits - before.deliver_visits;
    const std::uint64_t buffers = (after.local_sends - before.local_sends) +
                                  (after.nonblock_sends - before.nonblock_sends);
    EXPECT_GT(visits, 0u);
    EXPECT_LE(visits, buffers);
  }
}

}  // namespace

// ------------------------------------------------------------- randperm

#include "apps/randperm.hpp"

namespace {

TEST(RandPerm, ProducesAValidPermutation) {
  shmem::run(cfg_of(4, 2), [] {
    const std::size_t per_pe = 100;
    const auto r = random_permutation_actor(per_pe, 77);
    // Collect the whole permutation on PE0 via the symmetric heap.
    const int n = shmem::n_pes();
    const std::size_t total = per_pe * static_cast<std::size_t>(n);
    shmem::SymmArray<std::int64_t> global(total);
    shmem::barrier_all();
    const int me = shmem::my_pe();
    for (std::size_t s = 0; s < per_pe; ++s) {
      // Slot s on this PE is global slot s*n + me.
      shmem::put(&global[s * static_cast<std::size_t>(n) +
                         static_cast<std::size_t>(me)],
                 &r.local_perm[s], sizeof(std::int64_t), 0);
    }
    shmem::barrier_all();
    if (me == 0) {
      std::vector<bool> seen(total, false);
      for (std::size_t i = 0; i < total; ++i) {
        ASSERT_GE(global[i], 0) << "slot " << i << " empty";
        ASSERT_LT(global[i], static_cast<std::int64_t>(total));
        ASSERT_FALSE(seen[static_cast<std::size_t>(global[i])])
            << "value " << global[i] << " placed twice";
        seen[static_cast<std::size_t>(global[i])] = true;
      }
    }
    // Re-throws imply darts_thrown >= values owned.
    EXPECT_GE(r.darts_thrown, per_pe);
    EXPECT_EQ(r.darts_thrown - per_pe, r.rejections);
    // A board twice as long as the permutation re-throws about 0.39 darts
    // per value (2 ln 2 - 1); a board of exactly N slots re-throws about
    // H_N - 1 (~5.6 here), and its last dart needs about N rounds.
    EXPECT_LT(r.rejections, per_pe);
    shmem::barrier_all();
  });
}

TEST(RandPerm, DeterministicAcrossRuns) {
  // Darts land in arrival order, which only the fiber backend fixes.
  ap::rt::LaunchConfig cfg = cfg_of(2, 2);
  cfg.backend = ap::rt::Backend::fiber;
  std::vector<std::int64_t> a, b;
  shmem::run(cfg, [&a] {
    const auto r = random_permutation_actor(64, 5);
    if (shmem::my_pe() == 0) a = r.local_perm;
  });
  shmem::run(cfg, [&b] {
    const auto r = random_permutation_actor(64, 5);
    if (shmem::my_pe() == 0) b = r.local_perm;
  });
  EXPECT_EQ(a, b);
}

TEST(RandPerm, SinglePe) {
  shmem::run(cfg_of(1), [] {
    const auto r = random_permutation_actor(50, 3);
    std::vector<bool> seen(50, false);
    for (std::int64_t v : r.local_perm) {
      ASSERT_GE(v, 0);
      ASSERT_LT(v, 50);
      ASSERT_FALSE(seen[static_cast<std::size_t>(v)]);
      seen[static_cast<std::size_t>(v)] = true;
    }
  });
}

}  // namespace

// -------------------------------------------------------------- jaccard

#include "apps/jaccard.hpp"

namespace {

TEST(Jaccard, MatchesSerialReference) {
  const auto edges = rmat_edges(graph_params(8, 13));
  const Csr L = Csr::from_edges(1 << 8, edges, true);
  const auto serial = jaccard_serial(L);
  for (auto kind : {DistKind::Cyclic1D, DistKind::Range1D}) {
    shmem::run(cfg_of(4, 2), [&L, &serial, kind] {
      const auto dist = make_distribution(kind, shmem::n_pes(), L);
      const auto r = jaccard_actor(L, *dist);
      // Map local edges back to the global (row asc, neighbor asc) order.
      std::size_t local_idx = 0, global_idx = 0;
      for (Vertex i = 0; i < L.num_vertices(); ++i) {
        for (std::size_t a = 0; a < L.degree(i); ++a, ++global_idx) {
          if (dist->owner(i) != shmem::my_pe()) continue;
          ASSERT_LT(local_idx, r.local_similarity.size());
          EXPECT_DOUBLE_EQ(r.local_similarity[local_idx], serial[global_idx])
              << "edge index " << global_idx;
          ++local_idx;
        }
      }
      EXPECT_EQ(local_idx, r.local_similarity.size());
    });
  }
}

TEST(Jaccard, KnownSmallGraph) {
  // Triangle 0-1-2 plus a pendant 3-2: N_L(1)={0}, N_L(2)={0,1},
  // N_L(3)={2}.
  const std::vector<Edge> e{{1, 0}, {2, 0}, {2, 1}, {3, 2}};
  const Csr L = Csr::from_edges(4, e, true);
  const auto s = jaccard_serial(L);
  // Edges in row order: (1,0), (2,0), (2,1), (3,2).
  ASSERT_EQ(s.size(), 4u);
  EXPECT_DOUBLE_EQ(s[0], 0.0);        // N_L(1)∩N_L(0)=∅, union={0}
  EXPECT_DOUBLE_EQ(s[1], 0.0);        // common(2,0)=0, union size 2
  EXPECT_DOUBLE_EQ(s[2], 1.0 / 2.0);  // common(2,1)={0}, union {0,1}... 2+1-1=2
  EXPECT_DOUBLE_EQ(s[3], 0.0);
  shmem::run(cfg_of(2, 2), [&L] {
    CyclicDistribution dist(shmem::n_pes());
    const auto r = jaccard_actor(L, dist);
    std::int64_t edges_local =
        static_cast<std::int64_t>(r.local_similarity.size());
    EXPECT_EQ(shmem::sum_reduce(edges_local), 4);
  });
}

TEST(Jaccard, WedgeMessageCountMatchesFormula) {
  const auto edges = rmat_edges(graph_params(7, 5));
  const Csr L = Csr::from_edges(1 << 7, edges, true);
  shmem::run(cfg_of(4, 4), [&L] {
    CyclicDistribution dist(shmem::n_pes());
    const auto r = jaccard_actor(L, dist);
    std::uint64_t wedges = 0;
    for (Vertex i = 0; i < L.num_vertices(); ++i) {
      if (dist.owner(i) != shmem::my_pe()) continue;
      const std::uint64_t d = L.degree(i);
      wedges += d * (d - 1) / 2;
    }
    EXPECT_EQ(r.wedge_messages, wedges);
  });
}

}  // namespace

// -------------------------------------------------------------- toposort

#include "apps/toposort.hpp"

namespace {

TEST(Toposort, GeneratorProducesMorallyTriangular) {
  const auto m = make_morally_triangular(64, 3.0, 9);
  EXPECT_EQ(m.n, 64);
  EXPECT_GE(m.nnz(), 64u);  // at least the unit diagonal
  // Every row non-empty (unit diagonal survives the scrambling).
  for (const auto& r : m.rows) EXPECT_FALSE(r.empty());
}

TEST(Toposort, RecoversUpperTriangularForm) {
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    const auto m = make_morally_triangular(128, 2.5, seed);
    shmem::run(cfg_of(4, 2), [&m] {
      const auto res = toposort_actor(m);
      EXPECT_TRUE(toposort_valid(m, res)) << "invalid permutation";
      EXPECT_GT(res.waves, 1);
    });
  }
}

TEST(Toposort, IdentityMatrixSortsInOneWave) {
  SparseMatrix m;
  m.n = 16;
  m.rows.resize(16);
  for (std::int64_t i = 0; i < 16; ++i) m.rows[static_cast<std::size_t>(i)].push_back(i);
  shmem::run(cfg_of(4, 4), [&m] {
    const auto res = toposort_actor(m);
    EXPECT_TRUE(toposort_valid(m, res));
    EXPECT_EQ(res.waves, 1);
    EXPECT_EQ(res.decrement_messages, 0u);
  });
}

TEST(Toposort, DenseTriangleNeedsManyWaves) {
  // Fully dense upper triangular (unpermuted): strictly one row per wave.
  SparseMatrix m;
  m.n = 12;
  m.rows.resize(12);
  for (std::int64_t i = 0; i < 12; ++i)
    for (std::int64_t j = i; j < 12; ++j)
      m.rows[static_cast<std::size_t>(i)].push_back(j);
  shmem::run(cfg_of(3, 3), [&m] {
    const auto res = toposort_actor(m);
    EXPECT_TRUE(toposort_valid(m, res));
    EXPECT_EQ(res.waves, 12);
  });
}

TEST(Toposort, RejectsNonTriangularMatrix) {
  SparseMatrix m;  // a 2-cycle: no degree-1 row after the start
  m.n = 2;
  m.rows = {{0, 1}, {0, 1}};
  shmem::run(cfg_of(2, 2), [&m] {
    EXPECT_THROW(toposort_actor(m), std::runtime_error);
  });
}

TEST(Toposort, ValidatorCatchesBadPermutations) {
  const auto m = make_morally_triangular(32, 2.0, 4);
  TopoResult bogus;
  bogus.rperm.assign(32, 0);  // not a permutation
  bogus.cperm.assign(32, 0);
  EXPECT_FALSE(toposort_valid(m, bogus));
}

}  // namespace
