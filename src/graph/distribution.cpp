#include "graph/distribution.hpp"

#include <algorithm>
#include <stdexcept>

namespace ap::graph {

Distribution::Distribution(int p) : p_(p) {
  if (p <= 0) throw std::invalid_argument("Distribution: ranks must be > 0");
}

BlockDistribution::BlockDistribution(int p, Vertex n)
    : Distribution(p), n_(n), per_rank_((n + p - 1) / p) {
  if (n <= 0) throw std::invalid_argument("BlockDistribution: empty graph");
}

int BlockDistribution::owner(Vertex v) const {
  if (v < 0 || v >= n_)
    throw std::out_of_range("BlockDistribution: vertex out of range");
  return static_cast<int>(v / per_rank_);
}

RangeDistribution::RangeDistribution(int p, const Csr& lower)
    : Distribution(p) {
  const Vertex n = lower.num_vertices();
  const std::size_t nnz = lower.num_entries();
  first_row_.assign(static_cast<std::size_t>(p) + 1, n);
  first_row_[0] = 0;
  nnz_.assign(static_cast<std::size_t>(p), 0);

  // Greedy sweep: close a rank's range once it holds >= nnz/p entries.
  // (i, j, ... in Figure 6 "are chosen such that PEs have an equal number
  // of #nnz".)
  const std::size_t target = (nnz + static_cast<std::size_t>(p) - 1) /
                             static_cast<std::size_t>(p);
  int rank = 0;
  std::size_t acc = 0;
  for (Vertex v = 0; v < n; ++v) {
    acc += lower.degree(v);
    nnz_[static_cast<std::size_t>(rank)] += lower.degree(v);
    if (acc >= target * static_cast<std::size_t>(rank + 1) &&
        rank + 1 < p_) {
      ++rank;
      first_row_[static_cast<std::size_t>(rank)] = v + 1;
    }
  }
  for (int r = rank + 1; r <= p_; ++r)
    first_row_[static_cast<std::size_t>(r)] = n;
}

int RangeDistribution::owner(Vertex v) const {
  // The owning rank is the last boundary <= v.
  const auto it =
      std::upper_bound(first_row_.begin(), first_row_.end(), v);
  const auto idx = static_cast<int>(it - first_row_.begin()) - 1;
  if (idx < 0 || idx >= p_)
    throw std::out_of_range("RangeDistribution: vertex out of range");
  return idx;
}

std::size_t RangeDistribution::nnz_of(int rank) const {
  if (rank < 0 || rank >= p_)
    throw std::out_of_range("RangeDistribution::nnz_of: rank out of range");
  return nnz_[static_cast<std::size_t>(rank)];
}

std::string to_string(DistKind k) {
  switch (k) {
    case DistKind::Cyclic1D: return "1D Cyclic";
    case DistKind::Range1D: return "1D Range";
    case DistKind::Block1D: return "1D Block";
  }
  return "unknown";
}

std::unique_ptr<Distribution> make_distribution(DistKind k, int p,
                                                const Csr& lower) {
  switch (k) {
    case DistKind::Cyclic1D: return std::make_unique<CyclicDistribution>(p);
    case DistKind::Range1D:
      return std::make_unique<RangeDistribution>(p, lower);
    case DistKind::Block1D:
      return std::make_unique<BlockDistribution>(p, lower.num_vertices());
  }
  throw std::invalid_argument("make_distribution: unknown kind");
}

}  // namespace ap::graph
