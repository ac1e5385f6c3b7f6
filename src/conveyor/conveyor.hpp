// Conveyors-style message aggregation over minishmem (paper §II-B, [4]).
//
// A Conveyor moves fixed-size items between PEs with push-style
// aggregation: items headed for the same next hop are packed into a
// buffer; full buffers travel as one transfer (intra-node: memcpy through
// shmem_ptr; inter-node: shmem_putmem_nbi with double buffering, published
// by shmem_quiet + a signal put). Multi-hop routes (2D mesh / 3D cube)
// re-aggregate at intermediate PEs.
//
// The data plane is zero-copy-per-item by design (docs/PERFORMANCE.md):
// push() writes the wire record in place into a preallocated flat buffer,
// next hops come from a per-endpoint lookup table, delivery moves
// contiguous runs of records with one memcpy per run, and drain() hands
// the application views into the receive queue without copying.
//
// Steady-state usage is the classic Conveyors loop — identical to the real
// library's:
//
//   auto c = Conveyor::create(opts);           // collective
//   std::size_t i = 0;
//   bool done = false;
//   while (c->advance(done)) {
//     for (; i < n; ++i)
//       if (!c->push(&items[i], dest_of(i))) break;
//     c->drain([&](const ap::convey::Delivered& d) { handle(d); });
//     done = (i == n);
//     ap::rt::yield();                          // let other PEs progress
//   }
//
// push() may refuse (buffer/back-pressure); the caller must then advance().
// advance(done) keeps returning true until *every* PE passed done=true and
// every in-flight item has been drained. drain() is the only receive path.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "conveyor/observer.hpp"
#include "conveyor/routing.hpp"
#include "shmem/shmem.hpp"

namespace ap::convey {

struct Options {
  /// Size of one item in bytes (fixed per conveyor, like convey_begin).
  std::size_t item_bytes = 8;
  /// Payload capacity of one aggregation buffer (one ring slot).
  std::size_t buffer_bytes = 4096;
  RouteKind route = RouteKind::Auto;
  /// Ring slots per directed pair; 2 == the double buffering the paper
  /// describes (quiet fires when the second buffer is needed again).
  int slots = 2;
  /// Carry a 64-bit flow id per record through aggregation (8 extra wire
  /// bytes each). Off by default so the baseline wire format — and every
  /// byte-count users may depend on — is unchanged; the profiler turns it
  /// on when flow-correlated traces are requested.
  bool carry_flow_ids = false;
};

/// Per-endpoint statistics (this PE's view).
struct ConveyorStats {
  std::uint64_t pushed = 0;
  std::uint64_t pulled = 0;          // records handed out by drain()
  std::uint64_t forwarded = 0;       // items re-aggregated at this hop
  std::uint64_t local_sends = 0;
  std::uint64_t nonblock_sends = 0;
  std::uint64_t progress_calls = 0;  // quiet+signal rounds
  std::uint64_t local_send_bytes = 0;
  std::uint64_t nonblock_send_bytes = 0;
  std::uint64_t memcpys = 0;         // copy operations (runs count once)
  std::uint64_t drains = 0;          // drain() batches handed out
  /// Sources a delivery pass visited: only those whose doorbell rang, so
  /// on the fiber backend each visit consumes at least one buffer (unless
  /// a fault-injected quiet delay let a source ring mid-pass).
  std::uint64_t deliver_visits = 0;
};

/// Process-wide stats accumulated from every endpoint at its destruction
/// (the fiber simulator runs all PEs in one process). Lets harnesses report
/// per-message copy costs for whole app runs without holding conveyor
/// handles: snapshot, run, subtract.
ConveyorStats lifetime_totals();
void reset_lifetime_totals();

/// One delivered record, viewed in place inside the receive queue. The
/// payload pointer is only valid for the duration of the drain callback;
/// it may be unaligned for types stricter than 4 bytes — memcpy out.
struct Delivered {
  int src;                 ///< originating PE
  std::uint64_t flow;      ///< flow id given to push (0 when not carried)
  const void* payload;     ///< item_bytes of payload, in the wire buffer
};

class Conveyor {
 public:
  /// Collective construction: every PE must call with identical options.
  static std::shared_ptr<Conveyor> create(const Options& opts);

  ~Conveyor();
  Conveyor(const Conveyor&) = delete;
  Conveyor& operator=(const Conveyor&) = delete;

  /// Try to enqueue one item for PE `dst`. Returns false when aggregation
  /// buffers are full and back-pressure requires an advance() first.
  /// `flow_id` is carried with the record iff Options::carry_flow_ids
  /// (ignored otherwise) and resurfaces as Delivered::flow at the
  /// destination's drain().
  bool push(const void* item, int dst_pe, std::uint64_t flow_id = 0);

  /// Batch-drain everything currently delivered: invokes `fn(Delivered)`
  /// once per record, in arrival order, directly over the receive queue —
  /// no per-item copy, no per-item queue bookkeeping. Returns the number
  /// of records handled. The callback may push() (including to this
  /// conveyor) and may call advance(); newly delivered records land in a
  /// fresh queue and are picked up by the next drain() call. A drain()
  /// nested inside the callback hands out nothing (a checker misuse).
  /// If the callback throws, the record it threw on counts as consumed and
  /// the remainder of the batch is requeued ahead of later deliveries.
  template <class Fn>
  std::size_t drain(Fn&& fn) {
    const DrainBatch b = drain_begin();
    if (b.count == 0) return 0;
    std::size_t consumed = 0;
    try {
      const std::byte* p = b.data;
      for (std::size_t i = 0; i < b.count; ++i, p += b.stride) {
        Delivered d;
        std::int32_t src32 = 0;
        std::memcpy(&src32, p + sizeof(std::int32_t), sizeof src32);
        d.src = src32;
        d.flow = 0;
        if (b.flow_bytes != 0)
          std::memcpy(&d.flow, p + 2 * sizeof(std::int32_t), sizeof d.flow);
        d.payload = p + 2 * sizeof(std::int32_t) + b.flow_bytes;
        ++consumed;
        fn(static_cast<const Delivered&>(d));
      }
    } catch (...) {
      drain_abort(consumed);
      throw;
    }
    drain_end(b.count);
    return b.count;
  }

  /// Make communication progress. `done` declares that this PE will push
  /// no more items. Returns false once the conveyor is globally complete.
  bool advance(bool done);

  [[nodiscard]] const ConveyorStats& stats() const;
  /// Sum of stats over all PEs (any PE may call). Under the threads
  /// backend the per-endpoint counters are plain single-writer values:
  /// call this only when barrier-separated from remote PEs' conveyor
  /// activity (e.g. after shmem::barrier_all()). For a mid-run progress
  /// probe use stats() (own endpoint) plus delivered_total().
  [[nodiscard]] ConveyorStats total_stats() const;
  /// Items delivered group-wide so far (relaxed atomic — safe to poll
  /// mid-run from any worker; captures remote PEs' progress).
  [[nodiscard]] std::uint64_t delivered_total() const;

 private:
  struct Group;     // state shared by all endpoints
  struct Endpoint;  // this PE's state

  /// One drained batch: `count` records of `stride` bytes each starting at
  /// `data`, laid out [int32 dst][int32 src][flow?][payload].
  struct DrainBatch {
    const std::byte* data;
    std::size_t count;
    std::size_t stride;
    std::size_t flow_bytes;
  };

  Conveyor(std::shared_ptr<Group> group, int pe);

  DrainBatch drain_begin();
  void drain_end(std::size_t count);
  void drain_abort(std::size_t consumed);

  void deliver_incoming();
  bool try_flush(int next_hop);
  void flush_all();
  void progress_pending();
  /// Count everything a dying PE's endpoint still holds as lost (fault
  /// injection; called from the destructor during the kill unwind).
  void account_dead_endpoint();

  std::shared_ptr<Group> group_;
  std::unique_ptr<Endpoint> self_;
};

}  // namespace ap::convey
