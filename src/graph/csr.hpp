// Compressed sparse row adjacency, with the lower-triangular view the
// triangle-counting case study works on (paper Algorithm 1: l_ij with
// j < i means an edge between i and j).
#pragma once

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
  /// Binary search for entry (u, v).
  [[nodiscard]] bool has_entry(Vertex u, Vertex v) const;

  [[nodiscard]] const std::vector<std::size_t>& row_ptr() const {
    return row_ptr_;
  }
  [[nodiscard]] const std::vector<Vertex>& col_idx() const { return col_idx_; }

 private:
  std::vector<std::size_t> row_ptr_{0};
  std::vector<Vertex> col_idx_;
};

/// Serial reference triangle count on the lower-triangular matrix L:
/// a triangle {i, j, k} with k < j < i is counted once via sorted-list
/// intersection. Ground truth for validating the distributed kernel.
std::int64_t count_triangles_serial(const Csr& lower);

}  // namespace ap::graph
