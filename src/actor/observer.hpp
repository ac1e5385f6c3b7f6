// Instrumentation seam between HClib-Actor and ActorProf.
//
// The Selector reports application-level events: every send() *before*
// aggregation (the logical trace of §III-A), handler entry/exit (the PROC
// region), and entry/exit of the communication internals (the COMM region
// used to derive T_COMM in §III-B). A null observer costs one branch.
// One observer per process, installed before a launch. Under the threads
// backend its callbacks arrive concurrently from every worker; one PE's
// callbacks never overlap.
#pragma once

#include <cstddef>
#include <cstdint>

namespace ap::actor {

class ActorObserver {
 public:
  virtual ~ActorObserver() = default;

  /// An application send of `bytes` payload to `dst_pe` on mailbox `mb`
  /// (fires before the message enters any aggregation buffer). `flow_id`
  /// is non-zero only when the observer asked for flow correlation
  /// (wants_flow_ids); the same id reappears at on_handler_begin on the
  /// destination PE and on the physical transfer that carried the message,
  /// linking Send -> Transfer -> Proc across the stack.
  virtual void on_send(int mb, int dst_pe, std::size_t bytes,
                       std::uint64_t flow_id) = 0;

  /// The user message handler for mailbox `mb` is about to run / just ran
  /// for a message of `bytes` payload from `src_pe`. `flow_id` is the id
  /// assigned at the originating send (0 when flow ids are off).
  virtual void on_handler_begin(int mb, int src_pe, std::size_t bytes,
                                std::uint64_t flow_id) = 0;
  virtual void on_handler_end(int mb) = 0;

  /// The runtime entered/left conveyor progress work (advance, flush,
  /// delivery, termination detection) on the current PE.
  virtual void on_comm_begin() = 0;
  virtual void on_comm_end() = 0;

  /// Observers that only need per-region totals, counts, or aggregates
  /// keyed by mailbox can return false here: the selector then skips the
  /// per-message on_handler_begin/on_handler_end pairs and brackets each
  /// drained batch with on_handler_batch_begin / on_handler_batch instead.
  /// Observers that stamp individual handlers (Chrome timelines) keep the
  /// default (true). Read once, in Selector::start().
  [[nodiscard]] virtual bool wants_per_message_events() const { return true; }

  /// Whether each send's sim-PAPI construct charge must land at the send,
  /// as it must for an observer that attributes the clock by the latest
  /// send. The default is exact for every observer; false lets the
  /// batch-drain path land the charges in bulk at its next flush. Read
  /// once, in Selector::start().
  [[nodiscard]] virtual bool wants_per_send_charges() const { return true; }

  /// Batch-drain path only: the selector is about to run the first handler
  /// of a non-empty batch drained from mailbox `mb`. The batch's handlers
  /// form one PROC region, closed by on_handler_batch. Default no-op.
  virtual void on_handler_batch_begin(int mb) { (void)mb; }

  /// Batch-drain path only: closes the bracket on_handler_batch_begin
  /// opened. `count` handlers of `bytes_per_msg` payload each ran on
  /// mailbox `mb`; a handler that threw is counted, as the per-message path
  /// still calls on_handler_end for it. The selector defers its sim-PAPI
  /// handle charges on this path (and construct charges, unless
  /// wants_per_send_charges()) and lands them before this call and
  /// before every COMM region, so a clock read here or at on_comm_begin
  /// sees the same counters the per-message path would. Default no-op.
  virtual void on_handler_batch(int mb, std::size_t count,
                                std::size_t bytes_per_msg) {
    (void)mb;
    (void)count;
    (void)bytes_per_msg;
  }

  /// Actor API protocol misuse on the calling PE (send before start, send
  /// after done on the same mailbox, double start). Fires *before* the
  /// selector throws, so the conformance checker records the violation even
  /// when a harness catches the exception. Default no-op.
  virtual void on_actor_misuse(const char* what) { (void)what; }

  /// Opt in to per-message flow ids. When true, selectors allocate a
  /// monotonically increasing id per send and conveyors carry it through
  /// aggregation (8 extra wire bytes per record) so physical transfers and
  /// remote handlers can be correlated with the logical send. Off by
  /// default: the wire format — and its tested per-record overhead — is
  /// unchanged unless a flow-aware observer is installed.
  [[nodiscard]] virtual bool wants_flow_ids() const { return false; }
};

namespace detail {
/// The installed observer (observer.cpp). Read inline on every send, COMM
/// region and drained batch; set only outside a launch.
extern ActorObserver* g_observer;
}  // namespace detail

void set_actor_observer(ActorObserver* obs);
inline ActorObserver* actor_observer() { return detail::g_observer; }

/// Next process-wide logical-send flow id (1-based; 0 means "no flow").
/// Raw ids are only required to be unique — exporters renumber densely, so
/// the counter is never reset.
std::uint64_t next_flow_id();

}  // namespace ap::actor
