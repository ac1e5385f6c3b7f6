// Tests for the graph substrate: R-MAT generation (graph500 shape), CSR,
// serial triangle counting, and the 1D data distributions.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
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

/// Whether (u, v) is an entry of `g`, through a fresh cursor.
bool has_entry(const Csr& g, Vertex u, Vertex v) {
  return EntryCursor(g).probe(u, v);
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
  EXPECT_TRUE(has_entry(g, 0, 2));
  EXPECT_TRUE(has_entry(g, 2, 0));
  EXPECT_FALSE(has_entry(g, 0, 3));
}

TEST(Csr, LowerTriangularView) {
  const std::vector<Edge> edges{{0, 1}, {2, 0}, {1, 2}, {3, 1}};
  const Csr L = Csr::from_edges(4, edges, true);
  EXPECT_EQ(L.num_entries(), 4u);
  EXPECT_TRUE(has_entry(L, 1, 0));   // from {0,1}
  EXPECT_FALSE(has_entry(L, 0, 1));  // strictly lower
  EXPECT_TRUE(has_entry(L, 2, 0));
  EXPECT_TRUE(has_entry(L, 2, 1));
  EXPECT_TRUE(has_entry(L, 3, 1));
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

// ---------------------------------------------------------- entry cursor

/// A cursor answers every probe as a binary search of the probed row
/// would, whatever order the probes come in.
TEST(EntryCursor, AnswersEveryProbeLikeABinarySearch) {
  const Csr L = Csr::from_edges(1 << 8, rmat_edges(small_params(8, 3)), true);
  const Vertex n = L.num_vertices();
  const auto expected = [&L, n](Vertex row, Vertex col) {
    if (row < 0 || row >= n) return false;
    const auto nb = L.neighbors(row);
    return std::binary_search(nb.begin(), nb.end(), col);
  };
  std::vector<Vertex> empty_rows, long_rows;
  for (Vertex v = 0; v < n; ++v) {
    if (L.degree(v) == 0) empty_rows.push_back(v);
    if (L.degree(v) >= 8) long_rows.push_back(v);
  }
  ASSERT_FALSE(empty_rows.empty());
  ASSERT_FALSE(long_rows.empty());

  EntryCursor c(L);
  SplitMix64 rng(11);
  const auto below = [&rng](std::uint64_t bound) {
    return static_cast<Vertex>(rng.next_below(bound));
  };
  Vertex row = long_rows.front(), col = 0;
  std::uint64_t hits = 0;
  for (int i = 0; i < 50000; ++i) {
    switch (rng.next_below(8)) {
      case 0:  // switch to a long row, at or just before one of its entries
      case 1: {
        row = long_rows[static_cast<std::size_t>(below(long_rows.size()))];
        const auto nb = L.neighbors(row);
        col = nb[static_cast<std::size_t>(below(nb.size()))] - below(2);
        break;
      }
      case 2:  // ascend the same row onto its next entry, or just past it
      case 3: {
        const auto nb = L.neighbors(row);
        const auto next = std::upper_bound(nb.begin(), nb.end(), col);
        col = next == nb.end() ? col + 1 : *next + below(2);
        break;
      }
      case 4:  // the same column again, or a smaller one
        col -= below(3);
        break;
      case 5:  // past the end of the row
        col = L.degree(row) == 0 ? n : L.neighbors(row).back() + 1 + below(3);
        break;
      case 6:  // an empty row
        row = empty_rows[static_cast<std::size_t>(below(empty_rows.size()))];
        col = below(static_cast<std::uint64_t>(n));
        break;
      case 7: {  // a row outside [0, n): the kept row stays
        const Vertex outside[] = {-1, n, n + 1, -n,
                                  std::numeric_limits<Vertex>::min(),
                                  std::numeric_limits<Vertex>::max()};
        EXPECT_FALSE(c.probe(outside[rng.next_below(6)], col));
        continue;
      }
    }
    const bool want = expected(row, col);
    ASSERT_EQ(c.probe(row, col), want) << "probe " << i << ": (" << row
                                       << ", " << col << ")";
    hits += want ? 1 : 0;
  }
  EXPECT_EQ(c.probes(), 50000u);
  EXPECT_GT(hits, 1000u);  // the walk finds entries, not only misses
  EXPECT_GT(c.resumed(), 10000u);
}

/// An ascending run of m probes on one row resumes m - 1 times: only the
/// first searches the row.
TEST(EntryCursor, AnAscendingRunResumesAllButItsFirstProbe) {
  const Csr L = Csr::from_edges(1 << 8, rmat_edges(small_params(8, 3)), true);
  Vertex longest = 0;
  for (Vertex v = 0; v < L.num_vertices(); ++v)
    if (L.degree(v) > L.degree(longest)) longest = v;
  const auto nb = L.neighbors(longest);
  ASSERT_GE(nb.size(), 8u);

  EntryCursor c(L);
  (void)c.probe(longest == 0 ? 1 : 0, 0);  // another row first
  const std::uint64_t probes0 = c.probes(), resumed0 = c.resumed();
  std::uint64_t m = 0;
  for (const Vertex k : nb) {  // each entry twice, then the column after it
    for (const Vertex col : {k, k, k + 1}) {
      EXPECT_EQ(c.probe(longest, col), has_entry(L, longest, col)) << col;
      ++m;
    }
  }
  EXPECT_EQ(c.probes() - probes0, m);
  EXPECT_EQ(c.resumed() - resumed0, m - 1);
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
          if (has_entry(adj, a, b) && has_entry(adj, b, c) &&
              has_entry(adj, a, c))
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
