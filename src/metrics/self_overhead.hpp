// Profiler self-overhead accounting (tentpole part 4).
//
// The paper claims tracing overhead is "modest" (§IV-E) but never itemizes
// it. This meter turns the claim into a measured, regression-checkable
// number: every ActorProf observer callback and the sampler tick wrap
// themselves in an OverheadMeter::Scope, which charges the elapsed *wall*
// rdtsc cycles (always real time, regardless of the virtual cycle source —
// we are measuring the profiler's own cost, not the model's) to a per-PE,
// per-category bucket. Results surface in overall.txt ("SelfOverhead"
// lines), in write_metrics() output, and in the overhead_tracing bench's
// JSON trajectory.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>
#include <vector>

#include "papi/cycles.hpp"

namespace ap::metrics {

/// Where the profiler spends its own cycles.
enum class OverheadCategory : int {
  actor_send,     ///< ActorObserver::on_send (fold + logical record)
  actor_handler,  ///< handler begin/end and the batch bracket hooks
  comm_region,    ///< on_comm_begin/on_comm_end (the region folds)
  transfer,       ///< TransferObserver::on_transfer/on_advance
  rma,            ///< RmaObserver callbacks (shmem layer metrics)
  sampler,        ///< periodic snapshot + straggler detection
  superstep,      ///< on_collective_arrive superstep close/record
  check,          ///< BSP conformance checker (docs/CHECKING.md)
  publish,        ///< live-stream publisher staging (docs/OBSERVABILITY.md)
  kCount
};

inline constexpr int kOverheadCategories =
    static_cast<int>(OverheadCategory::kCount);

[[nodiscard]] std::string_view to_string(OverheadCategory c);

/// Per-PE (plus one fleet-global slot) cycle buckets per category.
class OverheadMeter {
 public:
  /// The tick hook runs outside any PE context; its cost lands here.
  static constexpr int kGlobalSlot = -1;

  void bind(int num_pes);
  [[nodiscard]] bool bound() const { return num_pes_ > 0; }
  [[nodiscard]] int num_pes() const { return num_pes_; }

  /// Charge `cycles` to (pe, category). pe == kGlobalSlot uses the fleet
  /// slot; out-of-range PEs land there too (never lose cycles, never throw
  /// on the hot path).
  void add(int pe, OverheadCategory c, std::uint64_t cycles);

  [[nodiscard]] std::uint64_t cycles(int pe, OverheadCategory c) const;
  /// Sum over categories for one PE (kGlobalSlot for the fleet slot).
  [[nodiscard]] std::uint64_t total(int pe) const;
  /// Sum over every PE and the fleet slot.
  [[nodiscard]] std::uint64_t grand_total() const;

  /// RAII cost scope. The PE is read at *destruction* (callbacks may
  /// early-return before a PE context exists; the dtor charges wherever
  /// the call actually ran). A null meter makes the scope free.
  class Scope {
   public:
    Scope(OverheadMeter* meter, OverheadCategory c, int pe)
        : meter_(meter), c_(c), pe_(pe) {
      if (meter_ != nullptr) t0_ = papi::rdtsc_now();
    }
    ~Scope() {
      if (meter_ != nullptr) meter_->add(pe_, c_, papi::rdtsc_now() - t0_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    OverheadMeter* meter_;
    OverheadCategory c_;
    int pe_;
    std::uint64_t t0_ = 0;
  };

 private:
  [[nodiscard]] std::size_t slot(int pe) const;

  int num_pes_ = 0;
  /// (num_pes + 1) rows of kOverheadCategories buckets; last row = fleet.
  std::vector<std::array<std::uint64_t, kOverheadCategories>> cells_;
};

}  // namespace ap::metrics
