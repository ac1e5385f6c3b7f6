// Forwarding decorators over the three public observer seams
// (actor::set_actor_observer, convey::set_transfer_observer,
// shmem::set_rma_observer). The traced run installs them on top of whatever
// observer is already registered (a Profiler, or nothing) to count and time
// each layer from outside the program.
//
// Each decorator forwards every callback and every wants_*() query to the
// observer it wraps, so the runtime takes the same path as without it. With
// nothing to wrap, the queries answer false: the selector stays on its
// batch-drain path and the shmem/conveyor layers emit no conformance events.
// A decorator restores the observer it replaced when it is destroyed, so
// seams must be destroyed before the Profiler they wrap (declare them after
// it).
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <vector>

#include "actor/observer.hpp"
#include "conveyor/observer.hpp"
#include "runtime/scheduler.hpp"
#include "shmem/profiling_interface.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

/// Calls that reached the wrapped observer and the wall time spent in them.
struct ForwardMeter {
  std::uint64_t calls = 0;
  std::int64_t ns = 0;

  template <class F>
  void time(F&& call) {
    const Clock::time_point t0 = Clock::now();
    call();
    ns += ns_between(t0, Clock::now());
    ++calls;
  }
};

/// Exclusive wall time each PE spends in the actor seam's COMM and PROC
/// regions. A comm region nested in a handler is charged to comm, not proc.
/// Under the fiber backend one PE runs at a time, so summing over PEs adds
/// up to wall time, provided a PE's clock stops while it is switched out:
/// a region that reaches a collective (the conveyor's set-up barrier) is
/// paused at the collective's arrival and resumed at its next boundary.
class RegionClock {
 public:
  enum class Region : std::uint8_t { comm, proc };

  explicit RegionClock(int num_pes) : pes_(static_cast<std::size_t>(num_pes)) {
    for (PeRegions& pe : pes_) pe.stack.reserve(8);
  }

  [[nodiscard]] std::int64_t comm_ns() const { return comm_ns_; }
  [[nodiscard]] std::int64_t proc_ns() const { return proc_ns_; }

  void enter(Region r) {
    PeRegions& pe = current();
    const Clock::time_point now = Clock::now();
    charge(pe, now);
    pe.stack.push_back(r);
    pe.since = now;
  }
  void leave() {
    PeRegions& pe = current();
    const Clock::time_point now = Clock::now();
    charge(pe, now);
    if (!pe.stack.empty()) pe.stack.pop_back();
    pe.since = now;
  }
  /// The calling PE is about to block in a collective.
  void pause() {
    PeRegions& pe = current();
    charge(pe, Clock::now());
    pe.paused = true;
  }

 private:
  struct PeRegions {
    std::vector<Region> stack;
    Clock::time_point since{};
    bool paused = false;
  };

  PeRegions& current() {
    return pes_[static_cast<std::size_t>(ap::rt::my_pe())];
  }
  void charge(PeRegions& pe, Clock::time_point now) {
    if (pe.paused) {
      pe.paused = false;  // resumed: the blocked time is charged nowhere
      return;
    }
    if (pe.stack.empty()) return;
    (pe.stack.back() == Region::comm ? comm_ns_ : proc_ns_) +=
        ns_between(pe.since, now);
  }

  std::vector<PeRegions> pes_;
  std::int64_t comm_ns_ = 0;
  std::int64_t proc_ns_ = 0;
};

class ActorSeam final : public ap::actor::ActorObserver {
 public:
  struct Counts {
    std::uint64_t sends = 0;
    std::uint64_t handled = 0;  ///< per-message handler entries + batched
    std::uint64_t batches = 0;  ///< on_handler_batch calls
  };

  ActorSeam(RegionClock& regions, ForwardMeter& meter)
      : inner_(ap::actor::actor_observer()), meter_(meter), regions_(regions) {
    ap::actor::set_actor_observer(this);
  }
  ~ActorSeam() override { ap::actor::set_actor_observer(inner_); }
  ActorSeam(const ActorSeam&) = delete;
  ActorSeam& operator=(const ActorSeam&) = delete;

  [[nodiscard]] const Counts& counts() const { return counts_; }

  void on_send(int mb, int dst_pe, std::size_t bytes,
               std::uint64_t flow_id) override {
    ++counts_.sends;
    if (inner_ != nullptr)
      meter_.time([&] { inner_->on_send(mb, dst_pe, bytes, flow_id); });
  }
  // Regions open after the forwarded begin and close before the forwarded
  // end, so the wrapped observer's own time is never charged to them.
  void on_handler_begin(int mb, int src_pe, std::size_t bytes,
                        std::uint64_t flow_id) override {
    ++counts_.handled;
    if (inner_ != nullptr)
      meter_.time(
          [&] { inner_->on_handler_begin(mb, src_pe, bytes, flow_id); });
    regions_.enter(RegionClock::Region::proc);
  }
  void on_handler_end(int mb) override {
    regions_.leave();
    if (inner_ != nullptr) meter_.time([&] { inner_->on_handler_end(mb); });
  }
  void on_comm_begin() override {
    if (inner_ != nullptr) meter_.time([&] { inner_->on_comm_begin(); });
    regions_.enter(RegionClock::Region::comm);
  }
  void on_comm_end() override {
    regions_.leave();
    if (inner_ != nullptr) meter_.time([&] { inner_->on_comm_end(); });
  }
  [[nodiscard]] bool wants_per_message_events() const override {
    return inner_ != nullptr && inner_->wants_per_message_events();
  }
  void on_handler_batch(int mb, std::size_t count,
                        std::size_t bytes_per_msg) override {
    ++counts_.batches;
    counts_.handled += count;
    if (inner_ != nullptr)
      meter_.time([&] { inner_->on_handler_batch(mb, count, bytes_per_msg); });
  }
  void on_actor_misuse(const char* what) override {
    if (inner_ != nullptr) meter_.time([&] { inner_->on_actor_misuse(what); });
  }
  [[nodiscard]] bool wants_flow_ids() const override {
    return inner_ != nullptr && inner_->wants_flow_ids();
  }

 private:
  ap::actor::ActorObserver* inner_;
  ForwardMeter& meter_;
  RegionClock& regions_;
  Counts counts_;
};

class TransferSeam final : public ap::convey::TransferObserver {
 public:
  struct Counts {
    /// Indexed by convey::SendType.
    std::array<std::uint64_t, 3> transfers{};
    std::uint64_t advances = 0;
  };

  explicit TransferSeam(ForwardMeter& meter)
      : inner_(ap::convey::transfer_observer()), meter_(meter) {
    ap::convey::set_transfer_observer(this);
  }
  ~TransferSeam() override { ap::convey::set_transfer_observer(inner_); }
  TransferSeam(const TransferSeam&) = delete;
  TransferSeam& operator=(const TransferSeam&) = delete;

  [[nodiscard]] const Counts& counts() const { return counts_; }

  void on_transfer(ap::convey::SendType type, std::size_t buffer_bytes,
                   int src_pe, int dst_pe,
                   std::uint64_t first_flow_id) override {
    ++counts_.transfers[static_cast<std::size_t>(type)];
    if (inner_ != nullptr)
      meter_.time([&] {
        inner_->on_transfer(type, buffer_bytes, src_pe, dst_pe,
                            first_flow_id);
      });
  }
  void on_advance(std::size_t out_pending_bytes,
                  std::size_t recv_pending_bytes) override {
    ++counts_.advances;
    if (inner_ != nullptr)
      meter_.time(
          [&] { inner_->on_advance(out_pending_bytes, recv_pending_bytes); });
  }
  bool wants_conformance_events() const override {
    return inner_ != nullptr && inner_->wants_conformance_events();
  }
  void on_conveyor_misuse(const char* what) override {
    if (inner_ != nullptr)
      meter_.time([&] { inner_->on_conveyor_misuse(what); });
  }

 private:
  ap::convey::TransferObserver* inner_;
  ForwardMeter& meter_;
  Counts counts_;
};

class RmaSeam final : public ap::shmem::RmaObserver {
 public:
  struct Counts {
    std::uint64_t nbi_puts = 0, nbi_bytes = 0;
    std::uint64_t quiets = 0, completed_by_quiet = 0;
    std::uint64_t barriers = 0, atomics = 0;
  };

  RmaSeam(RegionClock& regions, ForwardMeter& meter)
      : inner_(ap::shmem::rma_observer()), meter_(meter), regions_(regions) {
    ap::shmem::set_rma_observer(this);
  }
  ~RmaSeam() override { ap::shmem::set_rma_observer(inner_); }
  RmaSeam(const RmaSeam&) = delete;
  RmaSeam& operator=(const RmaSeam&) = delete;

  [[nodiscard]] const Counts& counts() const { return counts_; }

  void on_put(int target_pe, std::size_t bytes) override {
    fwd([&] { inner_->on_put(target_pe, bytes); });
  }
  void on_put_nbi(int target_pe, std::size_t bytes) override {
    ++counts_.nbi_puts;
    counts_.nbi_bytes += bytes;
    fwd([&] { inner_->on_put_nbi(target_pe, bytes); });
  }
  void on_get(int target_pe, std::size_t bytes) override {
    fwd([&] { inner_->on_get(target_pe, bytes); });
  }
  void on_quiet(std::size_t outstanding_puts) override {
    ++counts_.quiets;
    counts_.completed_by_quiet += outstanding_puts;
    fwd([&] { inner_->on_quiet(outstanding_puts); });
  }
  void on_barrier() override {
    ++counts_.barriers;
    fwd([&] { inner_->on_barrier(); });
  }
  void on_atomic(int target_pe) override {
    ++counts_.atomics;
    fwd([&] { inner_->on_atomic(target_pe); });
  }
  void on_collective_arrive() override {
    fwd([&] { inner_->on_collective_arrive(); });
    regions_.pause();
  }

  bool wants_conformance_events() const override {
    return inner_ != nullptr && inner_->wants_conformance_events();
  }
  void on_put_range(int target_pe, std::size_t offset, std::size_t bytes,
                    const ap::shmem::Callsite& cs) override {
    fwd([&] { inner_->on_put_range(target_pe, offset, bytes, cs); });
  }
  void on_get_range(int target_pe, std::size_t offset, std::size_t bytes,
                    const ap::shmem::Callsite& cs) override {
    fwd([&] { inner_->on_get_range(target_pe, offset, bytes, cs); });
  }
  void on_put_nbi_range(int target_pe, std::size_t offset, std::size_t bytes,
                        const ap::shmem::Callsite& cs) override {
    fwd([&] { inner_->on_put_nbi_range(target_pe, offset, bytes, cs); });
  }
  void on_quiet_begin(std::size_t outstanding) override {
    fwd([&] { inner_->on_quiet_begin(outstanding); });
  }
  void on_nbi_applied(std::size_t index) override {
    fwd([&] { inner_->on_nbi_applied(index); });
  }
  void on_quiet_suspend(std::size_t applied, std::size_t remaining) override {
    fwd([&] { inner_->on_quiet_suspend(applied, remaining); });
  }
  void on_atomic_range(int target_pe, std::size_t offset,
                       const ap::shmem::Callsite& cs) override {
    fwd([&] { inner_->on_atomic_range(target_pe, offset, cs); });
  }
  void on_wait_satisfied(std::size_t offset, std::size_t bytes) override {
    fwd([&] { inner_->on_wait_satisfied(offset, bytes); });
  }
  void on_local_store(int target_pe, std::size_t offset, std::size_t bytes,
                      const ap::shmem::Callsite& cs) override {
    fwd([&] { inner_->on_local_store(target_pe, offset, bytes, cs); });
  }
  void on_local_read(std::size_t offset, std::size_t bytes,
                     const ap::shmem::Callsite& cs) override {
    fwd([&] { inner_->on_local_read(offset, bytes, cs); });
  }
  void on_acquire_read(std::size_t offset, std::size_t bytes) override {
    fwd([&] { inner_->on_acquire_read(offset, bytes); });
  }
  void on_pe_dead(int pe) override {
    fwd([&] { inner_->on_pe_dead(pe); });
  }

 private:
  template <class F>
  void fwd(F&& call) {
    if (inner_ != nullptr) meter_.time(call);
  }

  ap::shmem::RmaObserver* inner_;
  ForwardMeter& meter_;
  RegionClock& regions_;
  Counts counts_;
};

}  // namespace perfbench
