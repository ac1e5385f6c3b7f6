// HClib-Actor: actors and selectors for FA-BSP programming (paper §II-A).
//
// A Selector is an actor with NMB guarded mailboxes. Each mailbox carries
// fixed-type messages over its own Conveyor, so sends aggregate
// automatically and handlers run one message at a time on the owning PE —
// no atomics are ever needed in user handlers (each PE is single-threaded).
//
// The canonical program shape is the paper's Listing 1/2:
//
//   class MyActor : public ap::actor::Selector<1, int> {
//     int* larray;
//     void process(int idx, int sender) { larray[idx] += 1; }
//    public:
//     explicit MyActor(int* a) : larray(a) {
//       mb[0].process = [this](int idx, int s) { process(idx, s); };
//     }
//   };
//   ...
//   ap::hclib::finish([&] {
//     actor->start();
//     for (...) actor->send(i, dst);
//     actor->done(0);
//   });
//
// done(k) declares that this PE pushes no more messages into mailbox k.
// When mailbox k terminates globally, done(k+1) fires automatically on
// every PE (HClib-Actor's dependent-mailbox chaining), which is what makes
// request/reply patterns across mailboxes terminate.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <stdexcept>
#include <type_traits>

#include "actor/observer.hpp"
#include "conveyor/conveyor.hpp"
#include "papi/papi.hpp"
#include "runtime/finish.hpp"
#include "runtime/scheduler.hpp"

namespace ap::actor {

/// Safety valve: a Selector whose pump spins this many rounds without any
/// global progress aborts with a diagnostic — the usual cause is a missing
/// done() on some PE, which would otherwise livelock silently.
inline constexpr std::uint64_t kStallLimit = 5'000'000;

namespace detail {
/// RAII COMM-region marker around runtime internals.
class CommRegion {
 public:
  CommRegion() {
    if (ActorObserver* o = actor_observer()) o->on_comm_begin();
  }
  ~CommRegion() {
    if (ActorObserver* o = actor_observer()) o->on_comm_end();
  }
  CommRegion(const CommRegion&) = delete;
  CommRegion& operator=(const CommRegion&) = delete;
};
}  // namespace detail

template <int NMB = 1, typename MsgT = std::int64_t>
class Selector {
  static_assert(NMB >= 1, "Selector needs at least one mailbox");
  static_assert(std::is_trivially_copyable_v<MsgT>,
                "Selector messages travel by memcpy; MsgT must be "
                "trivially copyable");

 public:
  struct Mailbox {
    /// User handler: (message, sender PE). Runs on the owning PE, one
    /// message at a time.
    std::function<void(MsgT, int)> process;
  };

  /// The guarded mailboxes; assign mb[k].process before start().
  std::array<Mailbox, NMB> mb;

  Selector() : Selector(default_options()) {}

  explicit Selector(const convey::Options& conveyor_options)
      : opts_(conveyor_options) {
    opts_.item_bytes = sizeof(MsgT);
  }

  virtual ~Selector() = default;
  Selector(const Selector&) = delete;
  Selector& operator=(const Selector&) = delete;

  /// Collective: create the conveyors and register this selector's worker
  /// with the innermost finish scope. Must be called inside hclib::finish
  /// by every PE.
  void start() {
    if (started_) {
      report_misuse("actor: start() called twice on one selector");
      throw std::logic_error("Selector::start called twice");
    }
    for (int k = 0; k < NMB; ++k) {
      if (!mb[static_cast<std::size_t>(k)].process)
        throw std::logic_error(
            "Selector::start: every mailbox needs a process handler");
    }
    {
      const auto comm = comm_region();
      // Flow correlation and the dispatch path are observer decisions made
      // at conveyor-creation time: all PEs run the same profiler config, so
      // both stay collective-consistent.
      if (ActorObserver* o = actor_observer()) {
        opts_.carry_flow_ids = o->wants_flow_ids();
        per_message_ = o->wants_per_message_events();
        per_send_charges_ = per_message_ || o->wants_per_send_charges();
      }
      for (int k = 0; k < NMB; ++k)
        state_[static_cast<std::size_t>(k)].conveyor =
            convey::Conveyor::create(opts_);
    }
    n_pes_ = rt::n_pes();
    charges_ = papi::message_charges(sizeof(MsgT));
    started_ = true;
    auto* scope = hclib::FinishScope::current();
    if (scope == nullptr)
      throw std::logic_error("Selector::start must run inside hclib::finish");
    scope->register_pump([this] { return pump(); });
  }

  /// Asynchronously send `msg` to mailbox `mb_id` of the actor on `dst_pe`.
  /// May pump communication (and run local handlers) while aggregation
  /// buffers are full — that interleaving IS the FA-BSP model.
  void send(int mb_id, const MsgT& msg, int dst_pe) {
    check_mailbox(mb_id);
    if (!started_) {
      report_misuse("actor: send() before start()");
      throw std::logic_error("Selector::send before start()");
    }
    // Before the observer sees the send: a profiler indexes per-destination
    // rows by dst_pe, and nothing may be charged for a send that never
    // happens.
    check_pe(dst_pe);
    MailboxState& st = state_[static_cast<std::size_t>(mb_id)];
    if (st.user_done) {
      report_misuse("actor: send() after done() on the same mailbox");
      throw std::logic_error("Selector::send after done() on this mailbox");
    }

    std::uint64_t flow = 0;
    if (ActorObserver* o = actor_observer()) {
      if (opts_.carry_flow_ids) flow = next_flow_id();
      o->on_send(mb_id, dst_pe, sizeof(MsgT), flow);
    }
    if (per_send_charges_)
      papi::account_n(charges_.construct, 1);
    else
      ++pending_constructs_;  // see flush_accounting()

    while (!st.conveyor->push(&msg, dst_pe, flow)) {
      {
        const auto comm = comm_region();
        // Progress EVERY mailbox, not just the blocked one: a peer may be
        // stuck inside a handler pushing to another mailbox of ours, and
        // only our advance() on that conveyor acks its ring slots. (A
        // request/reply selector livelocks otherwise.)
        for (MailboxState& other : state_) {
          if (other.conveyor && !other.complete)
            (void)other.conveyor->advance(false);
        }
        papi::sync_virtual_clock();  // back-pressure wait == COMM
      }
      drain_handlers();  // FA-BSP: process incoming while we send
      rt::yield();       // let peers consume what we flushed
    }
    // Periodically deliver + run handlers even when sends never block, so
    // message processing interleaves with the send loop (Figure 1's RED
    // segments inside the BLUE one) and receive queues stay small.
    if (++sends_since_poll_ >= kPollInterval) {
      sends_since_poll_ = 0;
      {
        const auto comm = comm_region();
        (void)st.conveyor->advance(false);
      }
      drain_handlers();
    }
  }

  /// Single-mailbox convenience (the paper's actor_ptr->send(msg, dst)).
  void send(const MsgT& msg, int dst_pe) { send(0, msg, dst_pe); }

  /// Declare that this PE sends no more messages to mailbox `mb_id`.
  void done(int mb_id) {
    check_mailbox(mb_id);
    if (!started_) throw std::logic_error("Selector::done before start()");
    state_[static_cast<std::size_t>(mb_id)].user_done = true;
  }

  /// True once every mailbox's conveyor has globally terminated.
  [[nodiscard]] bool terminated() const {
    for (const MailboxState& st : state_)
      if (!st.complete) return false;
    return true;
  }

  /// The conveyor backing mailbox `mb_id` (stats / tests).
  [[nodiscard]] const convey::Conveyor& conveyor(int mb_id = 0) const {
    check_mailbox(mb_id);
    return *state_[static_cast<std::size_t>(mb_id)].conveyor;
  }

  /// Messages this PE handled per mailbox.
  [[nodiscard]] std::uint64_t handled(int mb_id = 0) const {
    check_mailbox(mb_id);
    return state_[static_cast<std::size_t>(mb_id)].handled;
  }

 private:
  struct MailboxState {
    std::shared_ptr<convey::Conveyor> conveyor;
    bool user_done = false;
    bool done_passed = false;  // done flag already handed to advance()
    bool complete = false;     // conveyor terminated globally
    std::uint64_t handled = 0;
  };

  static convey::Options default_options() {
    convey::Options o;
    o.item_bytes = sizeof(MsgT);
    return o;
  }

  void check_mailbox(int mb_id) const {
    if (mb_id < 0 || mb_id >= NMB)
      throw std::out_of_range("Selector: mailbox id out of range");
  }

  void check_pe(int dst_pe) const {
    if (dst_pe < 0 || dst_pe >= n_pes_)
      throw std::out_of_range("Selector: destination PE out of range");
  }

  /// Conformance seam: hand protocol misuse to the observer (and through
  /// it to the BSP checker) before the selector throws.
  static void report_misuse(const char* what) {
    if (ActorObserver* o = actor_observer()) o->on_actor_misuse(what);
  }

  /// One progress round over all mailboxes; returns true when the whole
  /// selector has terminated. Registered as the finish-scope pump.
  bool pump() {
    bool all_complete = true;
    std::uint64_t progress_stamp = 0;
    for (int k = 0; k < NMB; ++k) {
      MailboxState& st = state_[static_cast<std::size_t>(k)];
      if (st.complete) continue;
      bool still_running;
      {
        const auto comm = comm_region();
        still_running = st.conveyor->advance(st.user_done);
        st.done_passed = st.user_done;
      }
      // Drain everything delivered this round; handlers may send() to
      // other mailboxes of this selector (or other selectors).
      if (!in_dispatch_) drain_mailbox(k);
      if (!still_running) {
        st.complete = true;
        // Dependent-mailbox chaining: termination of mailbox k is the
        // runtime's signal that no handler can feed mailbox k+1 anymore.
        if (k + 1 < NMB) state_[static_cast<std::size_t>(k + 1)].user_done = true;
      } else {
        all_complete = false;
      }
      // Progress stamp for the livelock guard. Own-endpoint stats() is a
      // plain single-writer read; delivered_total() is the group's relaxed
      // atomic delivery counter and is what captures *remote* PEs'
      // progress mid-run (total_stats() would race with their plain
      // counter bumps under the threads backend). Remote pushes that have
      // not yet delivered are bounded by buffer capacity before a flush
      // publishes them, so any system-wide progress moves the stamp
      // within a bounded number of rounds.
      progress_stamp += st.conveyor->stats().pushed +
                        st.conveyor->stats().pulled +
                        st.conveyor->delivered_total();
    }
    if (all_complete) return true;

    // Still waiting on peers: on a real cluster this PE would be burning
    // wall-clock polling the network; advance the virtual clock to the
    // fleet maximum so the overall profile sees the wait as COMM.
    {
      const auto comm = comm_region();
      papi::sync_virtual_clock();
    }

    // Livelock guard (missing done() somewhere).
    for (const MailboxState& st : state_) {
      if (!st.complete) progress_stamp += st.user_done ? 1u : 0u;
    }
    if (progress_stamp == last_progress_stamp_) {
      if (++stalled_rounds_ > kStallLimit)
        throw std::runtime_error(
            "Selector: no progress for too long — did every PE call done() "
            "on every mailbox?");
    } else {
      stalled_rounds_ = 0;
      last_progress_stamp_ = progress_stamp;
    }
    return false;
  }

  /// Run handlers for everything already delivered, unless we are already
  /// inside a handler (keeps handler recursion depth at one).
  void drain_handlers() {
    if (in_dispatch_) return;
    for (int k = 0; k < NMB; ++k) {
      if (state_[static_cast<std::size_t>(k)].conveyor) drain_mailbox(k);
    }
  }

  /// Dispatch every record delivered to mailbox `k` straight off the
  /// conveyor's receive queue (zero per-item copy or queue bookkeeping).
  /// Loops because handlers may advance() and deliver more.
  void drain_mailbox(int k) {
    while ((per_message_ ? drain_each(k) : drain_batch(k)) != 0) {
    }
  }

  /// Per-message path: every record gets its own begin/end hooks and its
  /// handle charge as it runs.
  std::size_t drain_each(int k) {
    return state_[static_cast<std::size_t>(k)].conveyor->drain(
        [&](const convey::Delivered& r) {
          MsgT msg;
          std::memcpy(&msg, r.payload, sizeof msg);
          dispatch(k, msg, r.src, r.flow);
        });
  }

  /// Batch-drain path: the batch is one PROC region, opened before its
  /// first handler and closed with the number of handlers entered, also
  /// when one of them throws. Handle charges are deferred
  /// (flush_accounting).
  std::size_t drain_batch(int k) {
    MailboxState& st = state_[static_cast<std::size_t>(k)];
    ActorObserver* o = actor_observer();
    std::size_t entered = 0;
    try {
      st.conveyor->drain([&](const convey::Delivered& r) {
        MsgT msg;
        std::memcpy(&msg, r.payload, sizeof msg);
        if (entered++ == 0 && o != nullptr) o->on_handler_batch_begin(k);
        ++pending_handles_;
        in_dispatch_ = true;
        mb[static_cast<std::size_t>(k)].process(msg, r.src);
        in_dispatch_ = false;
        ++st.handled;
      });
    } catch (...) {
      in_dispatch_ = false;
      close_batch(o, k, entered);
      throw;
    }
    close_batch(o, k, entered);
    return entered;
  }

  void close_batch(ActorObserver* o, int k, std::size_t entered) {
    if (entered == 0) return;
    flush_accounting();
    if (o != nullptr) o->on_handler_batch(k, entered, sizeof(MsgT));
  }

  /// On the batch-drain path handle charges, and construct charges unless
  /// the observer wants them per send, are deferred (they are exactly
  /// linear) and land here, in bulk, before every COMM region and every
  /// batch close. Every fold an observer makes at a region boundary and
  /// every virtual-clock sync comes after one of those points, so each sees
  /// exactly the counters the per-message path had charged by then.
  void flush_accounting() {
    if (pending_constructs_ != 0) {
      papi::account_n(charges_.construct, pending_constructs_);
      pending_constructs_ = 0;
    }
    if (pending_handles_ != 0) {
      papi::account_n(charges_.handle, pending_handles_);
      pending_handles_ = 0;
    }
  }

  /// Enter a COMM region with the deferred charges landed first.
  [[nodiscard]] detail::CommRegion comm_region() {
    flush_accounting();
    return detail::CommRegion{};
  }

  void dispatch(int mb_id, const MsgT& msg, int from, std::uint64_t flow = 0) {
    MailboxState& st = state_[static_cast<std::size_t>(mb_id)];
    if (ActorObserver* o = actor_observer())
      o->on_handler_begin(mb_id, from, sizeof(MsgT), flow);
    papi::account_n(charges_.handle, 1);
    in_dispatch_ = true;
    try {
      mb[static_cast<std::size_t>(mb_id)].process(msg, from);
    } catch (...) {
      in_dispatch_ = false;
      if (ActorObserver* o = actor_observer()) o->on_handler_end(mb_id);
      throw;
    }
    in_dispatch_ = false;
    ++st.handled;
    if (ActorObserver* o = actor_observer()) o->on_handler_end(mb_id);
  }

  /// How many uncontended sends may pass before we poll for incoming work.
  static constexpr int kPollInterval = 32;

  convey::Options opts_;
  std::array<MailboxState, NMB> state_{};
  bool started_ = false;
  int n_pes_ = 0;  // the launch's PE count, read in start()
  /// What one send and one handle of a MsgT charge, derived in start().
  papi::MessageCharges charges_{};
  /// The observer's answers, read once in start() (both false without one).
  bool per_message_ = false;
  bool per_send_charges_ = false;
  bool in_dispatch_ = false;
  int sends_since_poll_ = 0;
  std::uint64_t pending_constructs_ = 0;
  std::uint64_t pending_handles_ = 0;
  std::uint64_t last_progress_stamp_ = 0;
  std::uint64_t stalled_rounds_ = 0;
};

/// A plain actor is a selector with one mailbox (paper terminology).
template <typename MsgT = std::int64_t>
using Actor = Selector<1, MsgT>;

}  // namespace ap::actor
