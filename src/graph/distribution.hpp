// Data distributions for 1-D row partitioning (paper §IV-B.2).
//
// A distribution decides which PE owns which rows of the lower-triangular
// matrix L. The case study compares:
//   * 1D Cyclic — owner(row) = row % p: every PE gets ~the same number of
//     vertices, but power-law degree skew concentrates *edges*;
//   * 1D Range  — contiguous row ranges chosen so every PE owns ~the same
//     number of non-zeros (#nnz); this is the distribution behind the
//     "(L) observation" in Figure 6.
// A 1D Block distribution (equal vertex ranges) is included as the natural
// third baseline.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "graph/csr.hpp"

namespace ap::graph {

class Distribution {
 public:
  virtual ~Distribution() = default;
  /// Rank that owns row `v`.
  [[nodiscard]] virtual int owner(Vertex v) const = 0;
  [[nodiscard]] virtual std::string name() const = 0;
  [[nodiscard]] int num_ranks() const { return p_; }

 protected:
  explicit Distribution(int p);
  int p_;
};

/// owner(v) = v % p (Algorithm 1's FINDOWNER).
class CyclicDistribution final : public Distribution {
 public:
  explicit CyclicDistribution(int p) : Distribution(p) {}
  [[nodiscard]] int owner(Vertex v) const override {
    return static_cast<int>(v % p_);
  }
  [[nodiscard]] std::string name() const override { return "1D Cyclic"; }
};

/// Contiguous equal-vertex blocks.
class BlockDistribution final : public Distribution {
 public:
  BlockDistribution(int p, Vertex n);
  [[nodiscard]] int owner(Vertex v) const override;
  [[nodiscard]] std::string name() const override { return "1D Block"; }

 private:
  Vertex n_;
  Vertex per_rank_;
};

/// Contiguous ranges balanced by #nnz of L (paper's 1D Range).
class RangeDistribution final : public Distribution {
 public:
  /// Builds boundaries from the row sizes of `lower` so each rank owns
  /// roughly nnz/p entries.
  RangeDistribution(int p, const Csr& lower);
  [[nodiscard]] int owner(Vertex v) const override;
  [[nodiscard]] std::string name() const override { return "1D Range"; }
  /// first_row[r] .. first_row[r+1]-1 are rank r's rows.
  [[nodiscard]] const std::vector<Vertex>& boundaries() const {
    return first_row_;
  }
  /// #nnz of L owned by `rank`.
  [[nodiscard]] std::size_t nnz_of(int rank) const;

 private:
  std::vector<Vertex> first_row_;  // size p+1
  std::vector<std::size_t> nnz_;   // size p
};

enum class DistKind { Cyclic1D, Range1D, Block1D };
[[nodiscard]] std::string to_string(DistKind k);
/// Factory used by examples and benches.
std::unique_ptr<Distribution> make_distribution(DistKind k, int p,
                                                const Csr& lower);

}  // namespace ap::graph
