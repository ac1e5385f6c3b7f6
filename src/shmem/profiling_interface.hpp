// OpenSHMEM profiling interface (paper §V-B).
//
// The paper observes that no established profiler captures OpenSHMEM
// *non-blocking* routines (shmem_putmem_nbi) — score-p and TAU exclude
// them, CrayPat does not show them, VTune's fabric profiler only sees
// shmem_put — and suggests "a wrapper function for non-blocking routines"
// analogous to MPI's PMPI. minishmem provides exactly that seam: every
// RMA/synchronization routine reports to the registered RmaObserver
// *including* putmem_nbi and quiet, so a tool built on this interface can
// account for Conveyors traffic without instrumenting Conveyors itself.
// One observer per process, installed before a launch. Under the threads
// backend its callbacks arrive concurrently from every worker; one PE's
// callbacks never overlap.
#pragma once

#include <cstddef>

namespace ap::shmem {

/// Source position of the user-level RMA call, captured via
/// std::source_location at the public API boundary. `file` points at a
/// string literal baked into the binary, so storing the pointer is safe.
struct Callsite {
  const char* file = nullptr;
  unsigned line = 0;
};

class RmaObserver {
 public:
  virtual ~RmaObserver() = default;

  /// Blocking put of `bytes` to `target_pe`.
  virtual void on_put(int target_pe, std::size_t bytes) = 0;
  /// NON-BLOCKING put — the routine existing profilers cannot capture.
  virtual void on_put_nbi(int target_pe, std::size_t bytes) = 0;
  virtual void on_get(int target_pe, std::size_t bytes) = 0;
  /// quiet() completed `outstanding_puts` staged non-blocking puts.
  virtual void on_quiet(std::size_t outstanding_puts) = 0;
  virtual void on_barrier() = 0;
  virtual void on_atomic(int target_pe) = 0;
  /// The calling PE arrived at a collective round (barrier_all, sync_all,
  /// reductions) and is about to block until release. Fires
  /// *before* the PE waits — this is the superstep boundary the profiler
  /// stamps. Default no-op so existing observers keep compiling.
  virtual void on_collective_arrive() {}

  // --- Conformance events (BSP happens-before checker, docs/CHECKING.md) ---
  //
  // The byte-range hooks below only fire when wants_conformance_events()
  // returns true; the default-false gate keeps the hot paths at one cached
  // branch when no checker is installed. All offsets are symmetric-heap
  // offsets on the *target* PE's heap (symmetric, so equal on every PE).

  /// Gate for every on_*_range/on_local_*/on_acquire_read/on_nbi_* hook.
  virtual bool wants_conformance_events() const { return false; }
  /// Blocking put wrote [offset, offset+bytes) on target_pe's heap.
  virtual void on_put_range(int /*target_pe*/, std::size_t /*offset*/,
                            std::size_t /*bytes*/, const Callsite&) {}
  /// Blocking get read [offset, offset+bytes) from target_pe's heap.
  virtual void on_get_range(int /*target_pe*/, std::size_t /*offset*/,
                            std::size_t /*bytes*/, const Callsite&) {}
  /// putmem_nbi staged a put of [offset, offset+bytes) to target_pe; the
  /// data is NOT visible anywhere until the initiator's quiet().
  virtual void on_put_nbi_range(int /*target_pe*/, std::size_t /*offset*/,
                                std::size_t /*bytes*/, const Callsite&) {}
  /// quiet() is starting; `outstanding` staged puts will now apply.
  virtual void on_quiet_begin(std::size_t /*outstanding*/) {}
  /// One staged put applied during the current quiet(). `index` is the
  /// put's position in the staging queue — a conforming quiet applies
  /// indices 0..n-1 in order, each exactly once; fault-injection schedules
  /// may reorder or duplicate them.
  virtual void on_nbi_applied(std::size_t /*index*/) {}
  /// The current quiet() suspended (yielded the fiber) after applying
  /// `applied` of its staged puts, leaving `remaining` not yet visible.
  virtual void on_quiet_suspend(std::size_t /*applied*/,
                                std::size_t /*remaining*/) {}
  /// Atomic op touched 8 bytes at `offset` on target_pe's heap.
  virtual void on_atomic_range(int /*target_pe*/, std::size_t /*offset*/,
                               const Callsite&) {}
  /// wait_until() on [offset, offset+bytes) of the caller's own heap was
  /// satisfied — an acquire: the caller now legitimately observes every
  /// write that produced the awaited value.
  virtual void on_wait_satisfied(std::size_t /*offset*/,
                                 std::size_t /*bytes*/) {}
  /// A raw store into target_pe's heap announced via annotate_store()
  /// (e.g. the conveyor's intra-node memcpy through shmem::ptr).
  virtual void on_local_store(int /*target_pe*/, std::size_t /*offset*/,
                              std::size_t /*bytes*/, const Callsite&) {}
  /// A plain local read of the caller's own heap announced via
  /// annotate_local_read() — race-checked against remote writes.
  virtual void on_local_read(std::size_t /*offset*/, std::size_t /*bytes*/,
                             const Callsite&) {}
  /// An acquiring local read (publication-flag poll) announced via
  /// annotate_acquire_read() — synchronizes with the writes it observed.
  virtual void on_acquire_read(std::size_t /*offset*/,
                               std::size_t /*bytes*/) {}
  /// The calling PE died (fault injection) and leaves every collective.
  virtual void on_pe_dead(int /*pe*/) {}
};

namespace detail {
/// The installed observer (profiling_interface.cpp). Read inline on every
/// put and quiet; set only outside a launch.
extern RmaObserver* g_rma_observer;
}  // namespace detail

/// Install/read the process-wide observer, shared by every worker thread;
/// nullptr disables.
void set_rma_observer(RmaObserver* obs);
inline RmaObserver* rma_observer() { return detail::g_rma_observer; }

}  // namespace ap::shmem
