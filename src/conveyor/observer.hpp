// Instrumentation seam between Conveyors and ActorProf (physical trace).
//
// The conveyor calls the registered observer at exactly the three transfer
// sites the paper instruments (§III-C): local_send (intra-node memcpy via
// shmem_ptr), nonblock_send (shmem_putmem_nbi), and nonblock_progress
// (shmem_quiet + signal put). No profiling logic lives in the conveyor —
// a null observer means zero work beyond one branch.
// One observer per process, installed before a launch. Under the threads
// backend its callbacks arrive concurrently from every worker; one PE's
// callbacks never overlap.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace ap::convey {

enum class SendType { local_send, nonblock_send, nonblock_progress };

[[nodiscard]] constexpr std::string_view to_string(SendType t) {
  switch (t) {
    case SendType::local_send: return "local_send";
    case SendType::nonblock_send: return "nonblock_send";
    case SendType::nonblock_progress: return "nonblock_progress";
  }
  return "unknown";
}

class TransferObserver {
 public:
  virtual ~TransferObserver() = default;
  /// A network-level transfer of `buffer_bytes` from `src_pe` to `dst_pe`.
  /// `first_flow_id` is the flow id of the first aggregated record in the
  /// buffer (0 when the conveyor is not carrying flow ids) — enough to
  /// anchor a Send -> Transfer -> Proc chain without scanning the payload.
  virtual void on_transfer(SendType type, std::size_t buffer_bytes,
                           int src_pe, int dst_pe,
                           std::uint64_t first_flow_id) = 0;
  /// Called once per advance() on the calling PE with the bytes currently
  /// sitting in its outgoing (unflushed + in-flight) and received
  /// (undelivered) buffers — the backpressure signal the metrics sampler
  /// tracks. Default no-op so transfer-only observers need no change.
  virtual void on_advance(std::size_t out_pending_bytes,
                          std::size_t recv_pending_bytes) {
    (void)out_pending_bytes;
    (void)recv_pending_bytes;
  }
  /// Gate for the conformance instrumentation (docs/CHECKING.md): when
  /// true, the conveyor annotates its raw heap accesses (intra-node ring
  /// writes, publication-flag polls) through shmem::annotate_* and reports
  /// protocol misuse below. Endpoints cache this per advance(), so the
  /// default-false answer costs the data plane nothing.
  virtual bool wants_conformance_events() const { return false; }
  /// Conveyor API protocol misuse on the calling PE (nested drain_begin,
  /// push after done). Default no-op.
  virtual void on_conveyor_misuse(const char* what) { (void)what; }
};

/// Install/read the process-wide observer, shared by every worker thread.
/// The profiler owns the registration; nullptr disables physical tracing.
void set_transfer_observer(TransferObserver* obs);
TransferObserver* transfer_observer();

}  // namespace ap::convey
