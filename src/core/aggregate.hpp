// In-memory aggregation of traces: communication matrices, per-PE totals,
// and the quartile statistics behind the paper's violin plots.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

namespace ap::prof {

/// A dense src-by-dst counting matrix, the data behind every heatmap in the
/// paper. The "last row / last column" of the rendered heatmaps (total
/// recv per destination / total send per source) are the column/row sums.
class CommMatrix {
 public:
  CommMatrix() = default;
  explicit CommMatrix(int n) : n_(n), counts_(static_cast<std::size_t>(n) * static_cast<std::size_t>(n), 0) {}

  [[nodiscard]] int size() const { return n_; }

  void add(int src, int dst, std::uint64_t k = 1) {
    counts_[index(src, dst)] += k;
  }
  [[nodiscard]] std::uint64_t at(int src, int dst) const {
    return counts_[index(src, dst)];
  }

  /// Total sends per source PE (heatmap's last column).
  [[nodiscard]] std::vector<std::uint64_t> row_sums() const;
  /// Total recvs per destination PE (heatmap's last row).
  [[nodiscard]] std::vector<std::uint64_t> col_sums() const;
  [[nodiscard]] std::uint64_t total() const;
  [[nodiscard]] std::uint64_t max_cell() const;

  friend bool operator==(const CommMatrix&, const CommMatrix&) = default;

  /// True when every non-zero entry (src,dst) satisfies dst <= src — the
  /// paper's "(L) observation" for the 1D Range distribution (self-sends
  /// and the diagonal included).
  [[nodiscard]] bool is_lower_triangular() const;

 private:
  [[nodiscard]] std::size_t index(int src, int dst) const {
    return static_cast<std::size_t>(src) * static_cast<std::size_t>(n_) +
           static_cast<std::size_t>(dst);
  }
  int n_ = 0;
  std::vector<std::uint64_t> counts_;
};

/// Nonzero-cell map over an n-by-n communication space. Real traces are
/// sparse — under the mesh routes a PE talks to O(sqrt P) next hops — so
/// accumulating into a hash of touched cells keeps the analysis side
/// O(nonzero), where the dense CommMatrix would pin P^2 counters. The
/// rendering paths bucket *before* densifying (bucketed()), so no P^2
/// object ever exists for large P (docs/PERFORMANCE.md, "Memory at
/// scale"). Densify in full (dense()) only when n is known to be small,
/// e.g. for the advisor's per-PE diagnostics.
class SparseCommMatrix {
 public:
  SparseCommMatrix() = default;
  explicit SparseCommMatrix(int n) : n_(n) {}

  [[nodiscard]] int size() const { return n_; }
  [[nodiscard]] std::size_t nonzero_cells() const { return cells_.size(); }

  void add(int src, int dst, std::uint64_t k = 1) {
    if (k != 0) cells_[key(src, dst)] += k;
  }
  [[nodiscard]] std::uint64_t at(int src, int dst) const {
    const auto it = cells_.find(key(src, dst));
    return it == cells_.end() ? 0 : it->second;
  }

  /// Visit every nonzero cell as f(src, dst, count); unspecified order.
  template <class F>
  void for_each(F&& f) const {
    for (const auto& [k, v] : cells_)
      f(static_cast<int>(k / static_cast<std::uint64_t>(n_)),
        static_cast<int>(k % static_cast<std::uint64_t>(n_)), v);
  }

  [[nodiscard]] std::vector<std::uint64_t> row_sums() const;
  [[nodiscard]] std::vector<std::uint64_t> col_sums() const;
  [[nodiscard]] std::uint64_t total() const;

  /// Downsample into at most `target` buckets per side and densify the
  /// result — the only way large matrices should ever become dense. When
  /// n <= target this is simply dense().
  [[nodiscard]] CommMatrix bucketed(int target) const;
  /// Full densification: O(n^2) memory, callers must know n is small.
  [[nodiscard]] CommMatrix dense() const;

 private:
  [[nodiscard]] std::uint64_t key(int src, int dst) const {
    return static_cast<std::uint64_t>(src) * static_cast<std::uint64_t>(n_) +
           static_cast<std::uint64_t>(dst);
  }
  int n_ = 0;
  std::unordered_map<std::uint64_t, std::uint64_t> cells_;
};

/// Five-number summary + mean, the quartile content of a violin plot.
struct QuartileStats {
  double min = 0, q1 = 0, median = 0, q3 = 0, max = 0, mean = 0;
  std::size_t n = 0;
};

/// Compute quartiles of a sample (linear interpolation between ranks).
QuartileStats quartiles(std::vector<double> values);
QuartileStats quartiles_u64(const std::vector<std::uint64_t>& values);

/// Max/mean imbalance factor of a per-PE load vector (1.0 == perfectly
/// balanced); the number behind "PE0 suffers up to ~5x" statements.
double imbalance_factor(const std::vector<std::uint64_t>& per_pe);

/// Bucketing scheme shared by every downsampling path (terminal heatmap,
/// JSON, SVG): n PEs fold into buckets of per = ceil(n/target) consecutive
/// PEs, giving bucket_count(n, target) <= target buckets. When per does
/// not divide n the *last* bucket is short — bucket_range() is the single
/// source of truth for which PEs a bucket covers, so labels and
/// attribution can never disagree. The ranges partition [0, n) exactly.
[[nodiscard]] int bucket_count(int n, int target);
[[nodiscard]] int bucket_of(int pe, int n, int target);

/// Half-open PE range [begin, end) covered by one bucket.
struct BucketRange {
  int begin = 0;
  int end = 0;
  [[nodiscard]] int width() const { return end - begin; }
};
[[nodiscard]] BucketRange bucket_range(int bucket, int n, int target);

/// Downsample an n-by-n matrix to at most `target` rows/cols by summing
/// contiguous PE buckets — keeps terminal heatmaps readable at hundreds
/// of PEs (part of the paper's §VI large-trace agenda). Uses the
/// bucket_of/bucket_range scheme above.
CommMatrix bucket_matrix(const CommMatrix& m, int target);

}  // namespace ap::prof
