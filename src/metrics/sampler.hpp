// Periodic metrics sampler: a bounded ring of registry snapshots plus the
// online straggler/backpressure detector.
//
// The scheduler invokes a tick hook once per round-robin sweep (see
// rt::set_tick_hook); the Profiler decides — based on virtual time — when a
// sample is due, copies the registry's scalar series into the ring, and
// runs the detector against the fleet. Everything here is fixed-capacity:
// the ring overwrites its oldest snapshot and anomalies saturate at a cap,
// so a week-long run cannot grow profiler memory.
//
// "Virtual time" is the profiler's cycle source (paper §III-B): 1000
// cycles == 1 us, so one virtual millisecond == 1e6 cycles. Under the
// rdtsc source the same constant applies, assuming a ~1 GHz clock — the
// cadence is a sampling period, not a wall-clock contract.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

namespace ap::metrics {

/// Cycles per virtual millisecond (matches chrome_trace's 1000 cyc/us).
inline constexpr std::uint64_t kCyclesPerVirtualMs = 1'000'000;

/// Bounded ring of fleet snapshots. One entry = one timestamp plus the
/// scalar series of every PE (PE-major, `num_series` values per PE).
class SampleRing {
 public:
  void bind(int num_pes, std::size_t num_series, std::size_t capacity);
  [[nodiscard]] bool bound() const { return capacity_ > 0; }

  /// Append a snapshot (row = num_pes * num_series values), overwriting
  /// the oldest when full.
  void push(std::uint64_t t_cycles, const std::int64_t* row);

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  /// Snapshots overwritten since bind (total pushed = size + overwritten).
  [[nodiscard]] std::uint64_t overwritten() const { return overwritten_; }
  [[nodiscard]] int num_pes() const { return num_pes_; }
  [[nodiscard]] std::size_t num_series() const { return num_series_; }

  struct View {
    std::uint64_t t_cycles = 0;
    /// num_pes * num_series values, PE-major.
    const std::int64_t* row = nullptr;
  };
  /// i = 0 is the oldest retained snapshot, i = size()-1 the newest.
  [[nodiscard]] View at(std::size_t i) const;
  /// One sampled value: snapshot i, rank pe, series s.
  [[nodiscard]] std::int64_t value(std::size_t i, int pe,
                                   std::size_t s) const;

 private:
  int num_pes_ = 0;
  std::size_t num_series_ = 0;
  std::size_t capacity_ = 0;
  std::size_t size_ = 0;
  std::size_t head_ = 0;  // index of the oldest entry
  std::uint64_t overwritten_ = 0;
  std::vector<std::uint64_t> times_;
  std::vector<std::int64_t> rows_;  // capacity * num_pes * num_series
};

// ---------------------------------------------------------------- detector

enum class AnomalyKind {
  ProcBacklog,  ///< a PE's unprocessed-message backlog diverges from fleet
  CommShare     ///< a PE's COMM share of cycles diverges from fleet
};

[[nodiscard]] std::string_view to_string(AnomalyKind k);

struct Anomaly {
  AnomalyKind kind;
  int pe = -1;
  std::uint64_t t_cycles = 0;  ///< virtual time of the detecting sample
  double value = 0.0;          ///< the PE's sampled value
  double fleet_median = 0.0;
};

/// Median of `v` (by copy; v may be unsorted).
[[nodiscard]] double median(std::vector<double> v);

/// PEs whose value exceeds `factor` times the fleet median AND lies at
/// least `min_abs` above it. The absolute floor keeps a fleet of tiny
/// values (median 0.1, straggler 0.4) from spamming findings.
[[nodiscard]] std::vector<int> diverging_pes(const std::vector<double>& values,
                                             double factor, double min_abs);

/// Saturating anomaly log: keeps the first `cap` anomalies and counts the
/// rest, so detection stays O(1) memory over unbounded runs.
class AnomalyLog {
 public:
  explicit AnomalyLog(std::size_t cap = 4096) : cap_(cap) {}
  void record(const Anomaly& a) {
    if (items_.size() < cap_)
      items_.push_back(a);
    else
      ++dropped_;
  }
  [[nodiscard]] const std::vector<Anomaly>& items() const { return items_; }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }

 private:
  std::size_t cap_;
  std::vector<Anomaly> items_;
  std::uint64_t dropped_ = 0;
};

}  // namespace ap::metrics
