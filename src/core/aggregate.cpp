#include "core/aggregate.hpp"

#include <algorithm>
#include <stdexcept>

namespace ap::prof {

std::vector<std::uint64_t> CommMatrix::row_sums() const {
  std::vector<std::uint64_t> out(static_cast<std::size_t>(n_), 0);
  for (int s = 0; s < n_; ++s)
    for (int d = 0; d < n_; ++d) out[static_cast<std::size_t>(s)] += at(s, d);
  return out;
}

std::vector<std::uint64_t> CommMatrix::col_sums() const {
  std::vector<std::uint64_t> out(static_cast<std::size_t>(n_), 0);
  for (int s = 0; s < n_; ++s)
    for (int d = 0; d < n_; ++d) out[static_cast<std::size_t>(d)] += at(s, d);
  return out;
}

std::uint64_t CommMatrix::total() const {
  std::uint64_t t = 0;
  for (std::uint64_t c : counts_) t += c;
  return t;
}

std::uint64_t CommMatrix::max_cell() const {
  std::uint64_t m = 0;
  for (std::uint64_t c : counts_) m = std::max(m, c);
  return m;
}

bool CommMatrix::is_lower_triangular() const {
  for (int s = 0; s < n_; ++s)
    for (int d = s + 1; d < n_; ++d)
      if (at(s, d) != 0) return false;
  return true;
}

std::vector<std::uint64_t> SparseCommMatrix::row_sums() const {
  std::vector<std::uint64_t> out(static_cast<std::size_t>(n_), 0);
  for_each([&](int s, int, std::uint64_t v) {
    out[static_cast<std::size_t>(s)] += v;
  });
  return out;
}

std::vector<std::uint64_t> SparseCommMatrix::col_sums() const {
  std::vector<std::uint64_t> out(static_cast<std::size_t>(n_), 0);
  for_each([&](int, int d, std::uint64_t v) {
    out[static_cast<std::size_t>(d)] += v;
  });
  return out;
}

std::uint64_t SparseCommMatrix::total() const {
  std::uint64_t t = 0;
  for (const auto& [k, v] : cells_) t += v;
  return t;
}

CommMatrix SparseCommMatrix::bucketed(int target) const {
  if (target <= 0)
    throw std::invalid_argument("SparseCommMatrix::bucketed: target <= 0");
  if (n_ <= target) return dense();
  CommMatrix out(bucket_count(n_, target));
  for_each([&](int s, int d, std::uint64_t v) {
    out.add(bucket_of(s, n_, target), bucket_of(d, n_, target), v);
  });
  return out;
}

CommMatrix SparseCommMatrix::dense() const {
  CommMatrix out(n_);
  for_each([&](int s, int d, std::uint64_t v) { out.add(s, d, v); });
  return out;
}

int bucket_count(int n, int target) {
  if (target <= 0) throw std::invalid_argument("bucket_count: target <= 0");
  if (n <= target) return n;
  const int per = (n + target - 1) / target;
  return (n + per - 1) / per;
}

int bucket_of(int pe, int n, int target) {
  if (n <= target) return pe;
  const int per = (n + target - 1) / target;
  return pe / per;
}

BucketRange bucket_range(int bucket, int n, int target) {
  if (n <= target) return BucketRange{bucket, bucket + 1};
  const int per = (n + target - 1) / target;
  return BucketRange{bucket * per, std::min((bucket + 1) * per, n)};
}

QuartileStats quartiles(std::vector<double> v) {
  QuartileStats q;
  q.n = v.size();
  if (v.empty()) return q;
  std::sort(v.begin(), v.end());
  auto at_rank = [&v](double p) {
    if (v.size() == 1) return v[0];
    const double r = p * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(r);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = r - static_cast<double>(lo);
    return v[lo] * (1.0 - frac) + v[hi] * frac;
  };
  q.min = v.front();
  q.max = v.back();
  q.q1 = at_rank(0.25);
  q.median = at_rank(0.5);
  q.q3 = at_rank(0.75);
  double sum = 0;
  for (double x : v) sum += x;
  q.mean = sum / static_cast<double>(v.size());
  return q;
}

QuartileStats quartiles_u64(const std::vector<std::uint64_t>& values) {
  std::vector<double> v;
  v.reserve(values.size());
  for (std::uint64_t x : values) v.push_back(static_cast<double>(x));
  return quartiles(std::move(v));
}

CommMatrix bucket_matrix(const CommMatrix& m, int target) {
  if (target <= 0) throw std::invalid_argument("bucket_matrix: target <= 0");
  const int n = m.size();
  if (n <= target) return m;
  CommMatrix out(bucket_count(n, target));
  for (int s = 0; s < n; ++s)
    for (int d = 0; d < n; ++d)
      if (m.at(s, d) > 0)
        out.add(bucket_of(s, n, target), bucket_of(d, n, target), m.at(s, d));
  return out;
}

double imbalance_factor(const std::vector<std::uint64_t>& per_pe) {
  if (per_pe.empty()) return 1.0;
  std::uint64_t mx = 0, sum = 0;
  for (std::uint64_t x : per_pe) {
    mx = std::max(mx, x);
    sum += x;
  }
  if (sum == 0) return 1.0;
  const double mean = static_cast<double>(sum) / static_cast<double>(per_pe.size());
  return static_cast<double>(mx) / mean;
}

}  // namespace ap::prof
