// Tests for the graph substrate: R-MAT generation (graph500 shape), CSR,
// serial triangle counting, and the 1D data distributions.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>

#include "graph/csr.hpp"
#include "graph/distribution.hpp"
#include "graph/rmat.hpp"

namespace {

using namespace ap::graph;

std::size_t max_degree(const Csr& g) {
  std::size_t m = 0;
  for (Vertex v = 0; v < g.num_vertices(); ++v) m = std::max(m, g.degree(v));
  return m;
}

RmatParams small_params(int scale = 8, std::uint64_t seed = 1) {
  RmatParams p;
  p.scale = scale;
  p.edge_factor = 8;
  p.seed = seed;
  return p;
}

TEST(Rmat, DeterministicForSameSeed) {
  EXPECT_EQ(rmat_edges(small_params(8, 7)), rmat_edges(small_params(8, 7)));
}

TEST(Rmat, DifferentSeedsDiffer) {
  EXPECT_NE(rmat_edges(small_params(8, 1)), rmat_edges(small_params(8, 2)));
}

TEST(Rmat, RespectsVertexRange) {
  const auto edges = rmat_edges(small_params(6));
  const Vertex n = 1 << 6;
  for (const Edge& e : edges) {
    EXPECT_GE(e.u, 0);
    EXPECT_LT(e.u, n);
    EXPECT_GE(e.v, 0);
    EXPECT_LT(e.v, n);
    EXPECT_NE(e.u, e.v);  // self loops removed
  }
}

TEST(Rmat, DedupProducesUniqueCanonicalEdges) {
  const auto edges = rmat_edges(small_params(8));
  std::set<std::pair<Vertex, Vertex>> seen;
  for (const Edge& e : edges) {
    EXPECT_GE(e.u, e.v) << "canonical orientation u >= v";
    EXPECT_TRUE(seen.emplace(e.u, e.v).second) << "duplicate edge";
  }
}

TEST(Rmat, PowerLawSkew) {
  // The defining property the case study depends on: R-MAT degrees are
  // heavily skewed (paper: "the power law distribution nature of an input
  // R-MAT graph"). Max degree must far exceed the mean.
  RmatParams p = small_params(12);
  p.edge_factor = 16;
  const auto edges = rmat_edges(p);
  const Csr g = Csr::from_edges(Vertex{1} << p.scale, edges, false);
  const double mean = static_cast<double>(g.num_entries()) /
                      static_cast<double>(g.num_vertices());
  EXPECT_GT(static_cast<double>(max_degree(g)), 8.0 * mean);
}

TEST(Rmat, UniformParamsAreNotSkewed) {
  RmatParams p = small_params(12);
  p.a = p.b = p.c = 0.25;  // Erdos-Renyi-ish
  p.edge_factor = 16;
  const auto edges = rmat_edges(p);
  const Csr g = Csr::from_edges(Vertex{1} << p.scale, edges, false);
  const double mean = static_cast<double>(g.num_entries()) /
                      static_cast<double>(g.num_vertices());
  EXPECT_LT(static_cast<double>(max_degree(g)), 4.0 * mean);
}

TEST(Rmat, RejectsBadParams) {
  RmatParams p;
  p.scale = -1;
  EXPECT_THROW(rmat_edges(p), std::invalid_argument);
  p = RmatParams{};
  p.edge_factor = 0;
  EXPECT_THROW(rmat_edges(p), std::invalid_argument);
  p = RmatParams{};
  p.a = 0.9;
  p.b = 0.9;
  EXPECT_THROW(rmat_edges(p), std::invalid_argument);
}

// ------------------------------------------------------------------- CSR

TEST(Csr, SymmetricAdjacency) {
  const std::vector<Edge> edges{{1, 0}, {2, 0}, {2, 1}, {3, 1}};
  const Csr g = Csr::from_edges(4, edges, false);
  EXPECT_EQ(g.num_entries(), 8u);
  EXPECT_EQ(g.degree(0), 2u);
  EXPECT_EQ(g.degree(1), 3u);
  EXPECT_TRUE(g.has_entry(0, 2));
  EXPECT_TRUE(g.has_entry(2, 0));
  EXPECT_FALSE(g.has_entry(0, 3));
}

TEST(Csr, LowerTriangularView) {
  const std::vector<Edge> edges{{0, 1}, {2, 0}, {1, 2}, {3, 1}};
  const Csr L = Csr::from_edges(4, edges, true);
  EXPECT_EQ(L.num_entries(), 4u);
  EXPECT_TRUE(L.has_entry(1, 0));   // from {0,1}
  EXPECT_FALSE(L.has_entry(0, 1));  // strictly lower
  EXPECT_TRUE(L.has_entry(2, 0));
  EXPECT_TRUE(L.has_entry(2, 1));
  EXPECT_TRUE(L.has_entry(3, 1));
}

TEST(Csr, NeighborsAreSorted) {
  const auto edges = rmat_edges(small_params(8));
  const Csr g = Csr::from_edges(1 << 8, edges, false);
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    const auto nb = g.neighbors(v);
    EXPECT_TRUE(std::is_sorted(nb.begin(), nb.end()));
  }
}

TEST(Csr, RejectsOutOfRangeVertices) {
  const std::vector<Edge> edges{{5, 0}};
  EXPECT_THROW(Csr::from_edges(4, edges, true), std::out_of_range);
}

// ------------------------------------------------- serial triangle count

TEST(Triangles, KnownSmallGraphs) {
  // A single triangle.
  {
    const std::vector<Edge> e{{1, 0}, {2, 0}, {2, 1}};
    EXPECT_EQ(count_triangles_serial(Csr::from_edges(3, e, true)), 1);
  }
  // K4 has 4 triangles.
  {
    std::vector<Edge> e;
    for (Vertex u = 0; u < 4; ++u)
      for (Vertex v = 0; v < u; ++v) e.push_back({u, v});
    EXPECT_EQ(count_triangles_serial(Csr::from_edges(4, e, true)), 4);
  }
  // A path has none.
  {
    const std::vector<Edge> e{{1, 0}, {2, 1}, {3, 2}};
    EXPECT_EQ(count_triangles_serial(Csr::from_edges(4, e, true)), 0);
  }
  // K5: C(5,3) = 10.
  {
    std::vector<Edge> e;
    for (Vertex u = 0; u < 5; ++u)
      for (Vertex v = 0; v < u; ++v) e.push_back({u, v});
    EXPECT_EQ(count_triangles_serial(Csr::from_edges(5, e, true)), 10);
  }
}

TEST(Triangles, MatchesBruteForceOnRandomGraphs) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    RmatParams p = small_params(6, seed);
    p.edge_factor = 4;
    const auto edges = rmat_edges(p);
    const Csr L = Csr::from_edges(1 << 6, edges, true);
    const Csr adj = Csr::from_edges(1 << 6, edges, false);
    // Brute force over vertex triples.
    std::int64_t brute = 0;
    for (Vertex a = 0; a < adj.num_vertices(); ++a)
      for (Vertex b = 0; b < a; ++b)
        for (Vertex c = 0; c < b; ++c)
          if (adj.has_entry(a, b) && adj.has_entry(b, c) &&
              adj.has_entry(a, c))
            ++brute;
    EXPECT_EQ(count_triangles_serial(L), brute) << "seed " << seed;
  }
}

// ----------------------------------------------------------- distributions

TEST(Distribution, CyclicOwnership) {
  CyclicDistribution d(4);
  EXPECT_EQ(d.owner(0), 0);
  EXPECT_EQ(d.owner(5), 1);
  EXPECT_EQ(d.owner(7), 3);
  EXPECT_EQ(d.owner(2), 2);
  EXPECT_EQ(d.owner(6), 2);
}

TEST(Distribution, CyclicBalancesVertices) {
  CyclicDistribution d(8);
  std::vector<int> counts(8, 0);
  for (Vertex v = 0; v < 1000; ++v) counts[static_cast<std::size_t>(d.owner(v))]++;
  const auto [mn, mx] = std::minmax_element(counts.begin(), counts.end());
  EXPECT_LE(*mx - *mn, 1);
}

TEST(Distribution, BlockOwnershipContiguous) {
  BlockDistribution d(4, 100);
  EXPECT_EQ(d.owner(0), 0);
  EXPECT_EQ(d.owner(24), 0);
  EXPECT_EQ(d.owner(25), 1);
  EXPECT_EQ(d.owner(99), 3);
  EXPECT_THROW((void)d.owner(100), std::out_of_range);
}

TEST(Distribution, RangeBalancesNnz) {
  const auto edges = rmat_edges(small_params(10));
  const Csr L = Csr::from_edges(1 << 10, edges, true);
  const int p = 8;
  RangeDistribution d(p, L);
  const std::size_t total = L.num_entries();
  for (int r = 0; r < p; ++r) {
    // Every rank within 2x of the perfect share (power-law graphs cannot
    // be split perfectly at row granularity, but gross balance must hold).
    EXPECT_LT(d.nnz_of(r), 2 * total / static_cast<std::size_t>(p) +
                               max_degree(L));
  }
  // nnz partition covers everything.
  std::size_t sum = 0;
  for (int r = 0; r < p; ++r) sum += d.nnz_of(r);
  EXPECT_EQ(sum, total);
}

TEST(Distribution, RangeOwnershipIsMonotoneContiguous) {
  const auto edges = rmat_edges(small_params(9));
  const Csr L = Csr::from_edges(1 << 9, edges, true);
  RangeDistribution d(6, L);
  int prev = 0;
  for (Vertex v = 0; v < L.num_vertices(); ++v) {
    const int o = d.owner(v);
    EXPECT_GE(o, prev);
    EXPECT_LE(o - prev, 1);
    prev = o;
  }
  EXPECT_EQ(d.owner(0), 0);
}

TEST(Distribution, RangeKeyProperty) {
  // The property behind the "(L) observation": for the Range distribution,
  // a neighbor j of row i (j < i) is owned by a rank <= owner(i).
  const auto edges = rmat_edges(small_params(9));
  const Csr L = Csr::from_edges(1 << 9, edges, true);
  RangeDistribution d(4, L);
  for (Vertex i = 0; i < L.num_vertices(); ++i)
    for (Vertex j : L.neighbors(i)) EXPECT_LE(d.owner(j), d.owner(i));
}

TEST(Distribution, FactoryAndNames) {
  const auto edges = rmat_edges(small_params(6));
  const Csr L = Csr::from_edges(1 << 6, edges, true);
  EXPECT_EQ(make_distribution(DistKind::Cyclic1D, 3, L)->name(), "1D Cyclic");
  EXPECT_EQ(make_distribution(DistKind::Range1D, 3, L)->name(), "1D Range");
  EXPECT_EQ(make_distribution(DistKind::Block1D, 3, L)->name(), "1D Block");
  EXPECT_EQ(to_string(DistKind::Range1D), "1D Range");
}

TEST(Distribution, RejectsBadRankCount) {
  EXPECT_THROW(CyclicDistribution(0), std::invalid_argument);
  EXPECT_THROW(CyclicDistribution(-3), std::invalid_argument);
}

}  // namespace
