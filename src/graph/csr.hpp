// Compressed sparse row adjacency, with the lower-triangular view the
// triangle-counting case study works on (paper Algorithm 1: l_ij with
// j < i means an edge between i and j).
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/rmat.hpp"

namespace ap::graph {

class Csr {
 public:
  Csr() = default;

  /// Build from an undirected edge list.
  /// lower_triangular_only keeps, for every edge {u,v}, only the entry
  /// (max, min) — the matrix L of Algorithm 1. Otherwise both directions
  /// are stored (a symmetric adjacency).
  static Csr from_edges(Vertex num_vertices, std::span<const Edge> edges,
                        bool lower_triangular_only);

  [[nodiscard]] Vertex num_vertices() const {
    return static_cast<Vertex>(row_ptr_.size()) - 1;
  }
  [[nodiscard]] std::size_t num_entries() const { return col_idx_.size(); }

  /// Sorted neighbor list of `v` (column indices of row v).
  [[nodiscard]] std::span<const Vertex> neighbors(Vertex v) const {
    const auto b = row_ptr_[static_cast<std::size_t>(v)];
    const auto e = row_ptr_[static_cast<std::size_t>(v) + 1];
    return {col_idx_.data() + b, col_idx_.data() + e};
  }
  [[nodiscard]] std::size_t degree(Vertex v) const {
    return row_ptr_[static_cast<std::size_t>(v) + 1] -
           row_ptr_[static_cast<std::size_t>(v)];
  }

  [[nodiscard]] const std::vector<std::size_t>& row_ptr() const {
    return row_ptr_;
  }
  [[nodiscard]] const std::vector<Vertex>& col_idx() const { return col_idx_; }

 private:
  std::vector<std::size_t> row_ptr_{0};
  std::vector<Vertex> col_idx_;
};

/// Entry lookups into one Csr, one query at a time, each resuming where
/// the previous one stopped. A probe of the same row as the last probe, at
/// a column no smaller, gallops forward from the position that probe
/// reached; any other probe binary-searches its whole row. The answer is
/// the same whatever order queries arrive in; only the work depends on
/// it. The triangle and Jaccard handlers probe through one cursor per PE:
/// per-source FIFO delivery and the senders' ascending inner loops make
/// nearly every probe a resume (docs/PERFORMANCE.md, "Handler probes").
class EntryCursor {
 public:
  explicit EntryCursor(const Csr& g)
      : g_(&g), n_(static_cast<std::uint64_t>(g.num_vertices())) {}

  /// True iff (row, col) is an entry. A row outside [0, n) answers false
  /// and leaves the kept position as it was.
  [[nodiscard]] bool probe(Vertex row, Vertex col) {
    ++probes_;
    if (static_cast<std::uint64_t>(row) >= n_) return false;
    if (row == row_ && col >= col_) {
      ++resumed_;
      pos_ = gallop(pos_, end_, col);
    } else {
      seek(row, col);
    }
    col_ = col;
    return pos_ != end_ && *pos_ == col;
  }

  /// Probes made, and how many of them resumed from the previous one.
  [[nodiscard]] std::uint64_t probes() const { return probes_; }
  [[nodiscard]] std::uint64_t resumed() const { return resumed_; }

 private:
  /// The first position in [first, last) holding a column >= col, found
  /// by doubling steps from `first` and then a binary search of the last
  /// step: O(log distance) however long the row is.
  static const Vertex* gallop(const Vertex* first, const Vertex* last,
                              Vertex col) {
    // Invariant: every column before `first` is < col.
    std::size_t step = 1;
    const Vertex* hi = first;
    while (hi < last && *hi < col) {
      first = hi + 1;
      hi = static_cast<std::size_t>(last - first) > step ? first + step : last;
      step *= 2;
    }
    return std::lower_bound(first, hi, col);
  }
  /// Keep `row`, positioned at its first column >= col.
  void seek(Vertex row, Vertex col);

  const Csr* g_;
  std::uint64_t n_;  // rows of g_
  Vertex row_ = -1;  // the last probe's row; -1 before the first
  Vertex col_ = 0;   // the last probe's column
  const Vertex* pos_ = nullptr;  // first entry of row_ with column >= col_
  const Vertex* end_ = nullptr;  // end of row_
  std::uint64_t probes_ = 0;
  std::uint64_t resumed_ = 0;
};

/// Serial reference triangle count on the lower-triangular matrix L:
/// a triangle {i, j, k} with k < j < i is counted once via sorted-list
/// intersection. Ground truth for validating the distributed kernel.
std::int64_t count_triangles_serial(const Csr& lower);

}  // namespace ap::graph
