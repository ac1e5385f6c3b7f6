// Live metrics registry — the runtime-observability layer of ActorProf.
//
// The paper's profiler is post-mortem: every file is written after
// epoch_end(). A long-running FA-BSP job (the HClib-Actor "production
// PGAS system" setting) needs health signals *while it runs*. This
// registry provides them with the cost discipline of the rest of the
// stack: metric handles are registered once at startup, per-PE storage is
// allocated once when the world size is known (bind), and every hot-path
// update is a bounds-checked array write — no allocation, no hashing, no
// locks. Under the threads execution backend cells are updated with
// relaxed atomics (updates may be cross-PE — e.g. a sender bumps the
// destination's queue-depth gauge — and the sampler tick reads every PE's
// cells from another worker); under the fiber backend those compile to the
// same plain memory operations as before.
//
// Three instrument kinds:
//   Counter   — monotonically increasing u64 (sends, bytes, quiets, ...)
//   Gauge     — signed instantaneous value (queue depth, bytes in flight)
//   Histogram — fixed 32-bucket log2 histogram (message/buffer sizes)
//
// Snapshots are read by the periodic sampler (sampler.hpp) and exposed as
// Prometheus text and JSON by Profiler::write_metrics().
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace ap::metrics {

/// Typed handles; cheap value types returned at registration time.
struct CounterId {
  int i = -1;
};
struct GaugeId {
  int i = -1;
};
struct HistogramId {
  int i = -1;
};

/// log2 buckets: bucket 0 holds value 0, bucket b>0 holds values whose
/// bit width is b, i.e. [2^(b-1), 2^b - 1]. 32 buckets cover every u64
/// seen in practice (the last bucket absorbs the tail).
inline constexpr int kHistogramBuckets = 32;

[[nodiscard]] int histogram_bucket(std::uint64_t value);
/// Inclusive upper bound of bucket b (the Prometheus `le` label).
[[nodiscard]] std::uint64_t histogram_bucket_le(int bucket);

struct HistogramData {
  std::array<std::uint64_t, kHistogramBuckets> buckets{};
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
};

class Registry {
 public:
  /// Registration (startup, before bind). Names should follow Prometheus
  /// conventions ("actorprof_actor_sends_total"); they are emitted as-is.
  CounterId add_counter(std::string name, std::string help);
  GaugeId add_gauge(std::string name, std::string help);
  HistogramId add_histogram(std::string name, std::string help);

  /// Allocate (or re-allocate) per-PE storage and zero every value. After
  /// bind, updates are allocation-free.
  void bind(int num_pes);
  [[nodiscard]] bool bound() const { return num_pes_ > 0; }
  [[nodiscard]] int num_pes() const { return num_pes_; }

  // ---- hot path (explicit PE; callers already know their rank) ------------
  void add(int pe, CounterId id, std::uint64_t delta = 1);
  void set(int pe, GaugeId id, std::int64_t value);
  void add(int pe, GaugeId id, std::int64_t delta);
  void observe(int pe, HistogramId id, std::uint64_t value);

  // ---- reads ----------------------------------------------------------------
  [[nodiscard]] std::int64_t value(int pe, GaugeId id) const;

  /// Scalar series = all counters then all gauges, in registration order.
  /// This is the row layout the sampler snapshots.
  [[nodiscard]] std::size_t num_scalars() const {
    return counters_.size() + gauges_.size();
  }
  /// Copy every PE's scalar series into `out` (num_pes * num_scalars
  /// values, PE-major). `out` must be preallocated by the caller.
  void snapshot_scalars(std::int64_t* out) const;

  // ---- exposition -----------------------------------------------------------
  /// Prometheus text format 0.0.4, one time series per PE (`pe` label).
  void write_prometheus(std::ostream& os) const;
  /// One JSON object: { "name": {"type":..,"help":..,"per_pe":[..]}, .. }.
  void write_json(std::ostream& os) const;

 private:
  struct Desc {
    std::string name;
    std::string help;
  };
  struct PeSlab {
    std::vector<std::uint64_t> counters;
    std::vector<std::int64_t> gauges;
    std::vector<HistogramData> hists;
  };

  void check_bound(int pe) const;

  std::vector<Desc> counters_, gauges_, hists_;
  std::vector<PeSlab> slabs_;
  int num_pes_ = 0;
};

}  // namespace ap::metrics
