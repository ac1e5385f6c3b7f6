#include "metrics/registry.hpp"

#include <atomic>
#include <bit>
#include <limits>
#include <ostream>
#include <stdexcept>

namespace ap::metrics {

namespace {
// Metric cells are written concurrently under the threads backend — most
// by the owning PE's worker, but some cross-PE (a sender bumps the
// *destination's* queue-depth gauge) — and read by the sampler tick on
// another worker. Relaxed atomic_ref operations make every access
// race-free without widening the storage; counters are independent, so no
// ordering between them is needed.
template <class T>
void cell_add(T& cell, T delta) {
  std::atomic_ref<T>(cell).fetch_add(delta, std::memory_order_relaxed);
}

template <class T>
void cell_set(T& cell, T value) {
  std::atomic_ref<T>(cell).store(value, std::memory_order_relaxed);
}

template <class T>
T cell_get(const T& cell) {
  return std::atomic_ref<T>(const_cast<T&>(cell))
      .load(std::memory_order_relaxed);
}
}  // namespace

int histogram_bucket(std::uint64_t value) {
  if (value == 0) return 0;
  const int width = std::bit_width(value);  // >= 1
  return width < kHistogramBuckets ? width : kHistogramBuckets - 1;
}

std::uint64_t histogram_bucket_le(int bucket) {
  if (bucket <= 0) return 0;
  if (bucket >= kHistogramBuckets - 1)
    return std::numeric_limits<std::uint64_t>::max();
  return (std::uint64_t{1} << bucket) - 1;
}

CounterId Registry::add_counter(std::string name, std::string help) {
  if (bound())
    throw std::logic_error("Registry: register metrics before bind()");
  counters_.push_back(Desc{std::move(name), std::move(help)});
  return CounterId{static_cast<int>(counters_.size()) - 1};
}

GaugeId Registry::add_gauge(std::string name, std::string help) {
  if (bound())
    throw std::logic_error("Registry: register metrics before bind()");
  gauges_.push_back(Desc{std::move(name), std::move(help)});
  return GaugeId{static_cast<int>(gauges_.size()) - 1};
}

HistogramId Registry::add_histogram(std::string name, std::string help) {
  if (bound())
    throw std::logic_error("Registry: register metrics before bind()");
  hists_.push_back(Desc{std::move(name), std::move(help)});
  return HistogramId{static_cast<int>(hists_.size()) - 1};
}

void Registry::bind(int num_pes) {
  if (num_pes <= 0)
    throw std::invalid_argument("Registry::bind: num_pes must be positive");
  num_pes_ = num_pes;
  slabs_.assign(static_cast<std::size_t>(num_pes), PeSlab{});
  for (PeSlab& s : slabs_) {
    s.counters.assign(counters_.size(), 0);
    s.gauges.assign(gauges_.size(), 0);
    s.hists.assign(hists_.size(), HistogramData{});
  }
}

void Registry::check_bound(int pe) const {
  if (pe < 0 || pe >= num_pes_)
    throw std::out_of_range("Registry: PE index out of range (bind first?)");
}

void Registry::add(int pe, CounterId id, std::uint64_t delta) {
  check_bound(pe);
  cell_add(slabs_[static_cast<std::size_t>(pe)]
               .counters[static_cast<std::size_t>(id.i)],
           delta);
}

void Registry::set(int pe, GaugeId id, std::int64_t value) {
  check_bound(pe);
  cell_set(
      slabs_[static_cast<std::size_t>(pe)].gauges[static_cast<std::size_t>(id.i)],
      value);
}

void Registry::add(int pe, GaugeId id, std::int64_t delta) {
  check_bound(pe);
  cell_add(
      slabs_[static_cast<std::size_t>(pe)].gauges[static_cast<std::size_t>(id.i)],
      delta);
}

void Registry::observe(int pe, HistogramId id, std::uint64_t value) {
  check_bound(pe);
  HistogramData& h =
      slabs_[static_cast<std::size_t>(pe)].hists[static_cast<std::size_t>(id.i)];
  cell_add(h.buckets[static_cast<std::size_t>(histogram_bucket(value))],
           std::uint64_t{1});
  cell_add(h.count, std::uint64_t{1});
  cell_add(h.sum, value);
}

std::int64_t Registry::value(int pe, GaugeId id) const {
  check_bound(pe);
  return cell_get(slabs_[static_cast<std::size_t>(pe)]
                      .gauges[static_cast<std::size_t>(id.i)]);
}

void Registry::snapshot_scalars(std::int64_t* out) const {
  std::size_t k = 0;
  for (const PeSlab& s : slabs_) {
    for (const std::uint64_t& v : s.counters)
      out[k++] = static_cast<std::int64_t>(cell_get(v));
    for (const std::int64_t& v : s.gauges) out[k++] = cell_get(v);
  }
}

// ------------------------------------------------------------- exposition

void Registry::write_prometheus(std::ostream& os) const {
  auto header = [&os](const Desc& d, const char* type) {
    os << "# HELP " << d.name << ' ' << d.help << '\n';
    os << "# TYPE " << d.name << ' ' << type << '\n';
  };
  for (std::size_t m = 0; m < counters_.size(); ++m) {
    header(counters_[m], "counter");
    for (int pe = 0; pe < num_pes_; ++pe)
      os << counters_[m].name << "{pe=\"" << pe << "\"} "
         << cell_get(slabs_[static_cast<std::size_t>(pe)].counters[m]) << '\n';
  }
  for (std::size_t m = 0; m < gauges_.size(); ++m) {
    header(gauges_[m], "gauge");
    for (int pe = 0; pe < num_pes_; ++pe)
      os << gauges_[m].name << "{pe=\"" << pe << "\"} "
         << cell_get(slabs_[static_cast<std::size_t>(pe)].gauges[m]) << '\n';
  }
  for (std::size_t m = 0; m < hists_.size(); ++m) {
    header(hists_[m], "histogram");
    for (int pe = 0; pe < num_pes_; ++pe) {
      const HistogramData& h = slabs_[static_cast<std::size_t>(pe)].hists[m];
      std::uint64_t cum = 0;
      for (int b = 0; b < kHistogramBuckets; ++b) {
        cum += h.buckets[static_cast<std::size_t>(b)];
        os << hists_[m].name << "_bucket{pe=\"" << pe << "\",le=\"";
        if (b == kHistogramBuckets - 1)
          os << "+Inf";
        else
          os << histogram_bucket_le(b);
        os << "\"} " << cum << '\n';
      }
      os << hists_[m].name << "_sum{pe=\"" << pe << "\"} " << h.sum << '\n';
      os << hists_[m].name << "_count{pe=\"" << pe << "\"} " << h.count
         << '\n';
    }
  }
}

void Registry::write_json(std::ostream& os) const {
  os << '{';
  bool first = true;
  auto key = [&](const Desc& d, const char* type) {
    if (!first) os << ',';
    first = false;
    os << "\"" << d.name << "\":{\"type\":\"" << type << "\",\"help\":\""
       << d.help << "\",\"per_pe\":[";
  };
  for (std::size_t m = 0; m < counters_.size(); ++m) {
    key(counters_[m], "counter");
    for (int pe = 0; pe < num_pes_; ++pe)
      os << (pe ? "," : "")
         << cell_get(slabs_[static_cast<std::size_t>(pe)].counters[m]);
    os << "]}";
  }
  for (std::size_t m = 0; m < gauges_.size(); ++m) {
    key(gauges_[m], "gauge");
    for (int pe = 0; pe < num_pes_; ++pe)
      os << (pe ? "," : "")
         << cell_get(slabs_[static_cast<std::size_t>(pe)].gauges[m]);
    os << "]}";
  }
  for (std::size_t m = 0; m < hists_.size(); ++m) {
    key(hists_[m], "histogram");
    for (int pe = 0; pe < num_pes_; ++pe) {
      const HistogramData& h = slabs_[static_cast<std::size_t>(pe)].hists[m];
      os << (pe ? "," : "") << "{\"count\":" << h.count << ",\"sum\":" << h.sum
         << ",\"buckets\":[";
      for (int b = 0; b < kHistogramBuckets; ++b)
        os << (b ? "," : "") << h.buckets[static_cast<std::size_t>(b)];
      os << "]}";
    }
    os << "]}";
  }
  os << '}';
}

}  // namespace ap::metrics
