#include "graph/csr.hpp"

#include <algorithm>
#include <stdexcept>

namespace ap::graph {

Csr Csr::from_edges(Vertex num_vertices, std::span<const Edge> edges,
                    bool lower_triangular_only) {
  if (num_vertices < 0)
    throw std::invalid_argument("Csr: negative vertex count");
  Csr g;
  g.row_ptr_.assign(static_cast<std::size_t>(num_vertices) + 1, 0);

  // Count entries per row.
  auto add_count = [&g, num_vertices](Vertex row) {
    if (row < 0 || row >= num_vertices)
      throw std::out_of_range("Csr: vertex id out of range");
    g.row_ptr_[static_cast<std::size_t>(row) + 1]++;
  };
  for (const Edge& e : edges) {
    if (lower_triangular_only) {
      add_count(std::max(e.u, e.v));
    } else {
      add_count(e.u);
      add_count(e.v);
    }
  }
  for (std::size_t i = 1; i < g.row_ptr_.size(); ++i)
    g.row_ptr_[i] += g.row_ptr_[i - 1];

  g.col_idx_.resize(g.row_ptr_.back());
  std::vector<std::size_t> cursor(g.row_ptr_.begin(), g.row_ptr_.end() - 1);
  auto place = [&g, &cursor](Vertex row, Vertex col) {
    g.col_idx_[cursor[static_cast<std::size_t>(row)]++] = col;
  };
  for (const Edge& e : edges) {
    if (lower_triangular_only) {
      place(std::max(e.u, e.v), std::min(e.u, e.v));
    } else {
      place(e.u, e.v);
      place(e.v, e.u);
    }
  }
  for (Vertex v = 0; v < num_vertices; ++v) {
    auto* b = g.col_idx_.data() + g.row_ptr_[static_cast<std::size_t>(v)];
    auto* e = g.col_idx_.data() + g.row_ptr_[static_cast<std::size_t>(v) + 1];
    std::sort(b, e);
  }
  return g;
}

void EntryCursor::seek(Vertex row, Vertex col) {
  const auto nb = g_->neighbors(row);
  row_ = row;
  end_ = nb.data() + nb.size();
  pos_ = std::lower_bound(nb.data(), end_, col);
}

std::int64_t count_triangles_serial(const Csr& lower) {
  std::int64_t count = 0;
  for (Vertex i = 0; i < lower.num_vertices(); ++i) {
    const auto ni = lower.neighbors(i);
    // For each pair (j, k) with k < j < i, triangle iff l_jk exists.
    for (std::size_t a = 0; a < ni.size(); ++a) {
      const Vertex j = ni[a];
      const auto nj = lower.neighbors(j);
      // |ni[0..a) ∩ nj| via sorted intersection.
      std::size_t x = 0, y = 0;
      while (x < a && y < nj.size()) {
        if (ni[x] < nj[y]) {
          ++x;
        } else if (ni[x] > nj[y]) {
          ++y;
        } else {
          ++count;
          ++x;
          ++y;
        }
      }
    }
  }
  return count;
}

}  // namespace ap::graph
