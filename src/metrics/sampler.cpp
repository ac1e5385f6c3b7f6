#include "metrics/sampler.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace ap::metrics {

void SampleRing::bind(int num_pes, std::size_t num_series,
                      std::size_t capacity) {
  if (num_pes <= 0)
    throw std::invalid_argument("SampleRing::bind: num_pes must be positive");
  if (capacity == 0)
    throw std::invalid_argument("SampleRing::bind: capacity must be >= 1");
  num_pes_ = num_pes;
  num_series_ = num_series;
  capacity_ = capacity;
  size_ = head_ = 0;
  overwritten_ = 0;
  times_.assign(capacity, 0);
  rows_.assign(capacity * static_cast<std::size_t>(num_pes) * num_series, 0);
}

void SampleRing::push(std::uint64_t t_cycles, const std::int64_t* row) {
  if (!bound()) throw std::logic_error("SampleRing::push before bind");
  const std::size_t stride = static_cast<std::size_t>(num_pes_) * num_series_;
  std::size_t slot;
  if (size_ < capacity_) {
    slot = (head_ + size_) % capacity_;
    ++size_;
  } else {
    slot = head_;
    head_ = (head_ + 1) % capacity_;
    ++overwritten_;
  }
  times_[slot] = t_cycles;
  if (stride > 0)
    std::memcpy(rows_.data() + slot * stride, row,
                stride * sizeof(std::int64_t));
}

SampleRing::View SampleRing::at(std::size_t i) const {
  if (i >= size_) throw std::out_of_range("SampleRing::at");
  const std::size_t slot = (head_ + i) % capacity_;
  const std::size_t stride = static_cast<std::size_t>(num_pes_) * num_series_;
  return View{times_[slot], rows_.data() + slot * stride};
}

std::int64_t SampleRing::value(std::size_t i, int pe, std::size_t s) const {
  const View v = at(i);
  if (pe < 0 || pe >= num_pes_ || s >= num_series_)
    throw std::out_of_range("SampleRing::value");
  return v.row[static_cast<std::size_t>(pe) * num_series_ + s];
}

// ---------------------------------------------------------------- detector

std::string_view to_string(AnomalyKind k) {
  switch (k) {
    case AnomalyKind::ProcBacklog: return "proc_backlog";
    case AnomalyKind::CommShare: return "comm_share";
  }
  return "unknown";
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid),
                   v.end());
  double hi = v[mid];
  if (v.size() % 2 == 1) return hi;
  const double lo =
      *std::max_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid));
  return (lo + hi) / 2.0;
}

std::vector<int> diverging_pes(const std::vector<double>& values,
                               double factor, double min_abs) {
  std::vector<int> out;
  if (values.size() < 2) return out;  // a fleet of one has no stragglers
  const double med = median(values);
  for (std::size_t pe = 0; pe < values.size(); ++pe) {
    const double v = values[pe];
    if (v >= med + min_abs && v > factor * med)
      out.push_back(static_cast<int>(pe));
  }
  return out;
}

}  // namespace ap::metrics
