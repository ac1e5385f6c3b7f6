// Cooperative SPMD scheduler with two execution backends.
//
// launch(cfg, body) runs `body` once per simulated processing element (PE),
// each on its own fiber. PEs interact only through shared memory owned by
// higher layers (minishmem); they yield control at well-defined points
// (barriers, conveyor advance, shmem quiet, finish-wait).
//
// Backend::fiber (the default) schedules every fiber round-robin on the
// calling thread: every run is bit-for-bit reproducible — the simulated
// "multi-node cluster" substrate described in DESIGN.md. Backend::threads
// partitions the PEs over N OS worker threads (ACTORPROF_THREADS); each PE
// is still a fiber with identical blocking semantics, but fibers owned by
// different workers genuinely run in parallel, so the substrate layers
// above must be (and are) thread-safe. See docs/ARCHITECTURE.md
// ("Execution backends").
#pragma once

#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <typeindex>
#include <vector>

#include "runtime/backend.hpp"
#include "runtime/fiber.hpp"

namespace ap::rt {

/// Parameters of one SPMD launch (the simulated cluster shape).
struct LaunchConfig {
  int num_pes = 4;
  /// PEs per simulated cluster node; 0 means "all PEs on one node".
  int pes_per_node = 0;
  std::size_t stack_bytes = Fiber::kDefaultStackBytes;
  /// Per-PE symmetric heap capacity (used by minishmem).
  std::size_t symm_heap_bytes = std::size_t{64} << 20;
  /// Seed for any runtime-level pseudo-randomness (kept for determinism).
  std::uint64_t seed = 0xA5A5F00Dull;
  /// Execution backend; auto_ defers to ACTORPROF_BACKEND, then fiber.
  Backend backend = Backend::auto_;
  /// Worker threads for Backend::threads; 0 defers to ACTORPROF_THREADS,
  /// then hardware concurrency. Always clamped to [1, num_pes].
  int num_threads = 0;
};

/// Thrown when every unfinished PE is blocked on a predicate that cannot
/// become true — a genuine distributed deadlock in the simulated program.
class DeadlockError : public std::runtime_error {
 public:
  explicit DeadlockError(const std::string& what) : std::runtime_error(what) {}
};

/// The per-launch scheduler. Created by launch(); user code reaches it
/// through the free functions below rather than directly.
class Scheduler {
 public:
  Scheduler(LaunchConfig cfg, std::function<void(int)> body);
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Run all PE fibers to completion. Throws DeadlockError on deadlock and
  /// rethrows the first exception escaping any PE body.
  void run();

  [[nodiscard]] int num_pes() const { return cfg_.num_pes; }

  /// Rank of the PE currently executing on this thread; -1 outside any PE
  /// fiber. Thread-local under the threads backend: each worker sees the
  /// PE it is running right now.
  [[nodiscard]] int current_pe() const;

  /// Cooperatively yield to the next runnable PE.
  void yield_current();

  /// Block the current PE until `pred()` is true, yielding in between.
  /// `pred` must be made true by the action of some other PE (or already
  /// be true); otherwise the launch ends with DeadlockError. Under the
  /// threads backend `pred` is evaluated on the worker thread owning this
  /// PE, so it must read cross-PE state with acquire semantics (the
  /// substrate layers' predicates all do).
  void wait_until(std::function<bool()> pred);

  /// Collective-object registry: every PE must call collective<T>() in the
  /// same program order with the same T. The first PE to reach call-site
  /// index k constructs the object; the rest receive the shared instance.
  /// This mirrors how OpenSHMEM/Conveyors objects are collectively created.
  /// The factory may itself block (e.g. on a barrier): the registry slot is
  /// reserved before `make` runs and no lock is held across it.
  template <class T, class Factory>
  std::shared_ptr<T> collective(Factory&& make) {
    const int pe = current_pe();
    if (pe < 0)
      throw std::logic_error("collective() called outside an SPMD region");
    // Per-PE cursor: only ever touched by the worker owning this PE.
    const std::size_t idx =
        next_collective_index_[static_cast<std::size_t>(pe)]++;
    std::unique_lock<std::mutex> lk(coll_mu_);
    if (idx > collectives_.size())
      throw std::logic_error("collective(): registry out of sync");
    if (idx == collectives_.size()) {
      // Reserve the slot, then construct without the lock so a factory
      // that yields (or blocks on a barrier) cannot wedge other PEs.
      collectives_.push_back(
          Entry{std::type_index(typeid(T)), nullptr, false, {}});
      lk.unlock();
      std::shared_ptr<void> obj;
      try {
        obj = std::shared_ptr<void>(make());
      } catch (...) {
        lk.lock();
        collectives_[idx].poisoned = true;
        collectives_[idx].error = std::current_exception();
        lk.unlock();
        throw;
      }
      lk.lock();
      collectives_[idx].object = std::move(obj);
      std::shared_ptr<void> out = collectives_[idx].object;
      lk.unlock();
      return std::static_pointer_cast<T>(std::move(out));
    }
    if (collectives_[idx].type != std::type_index(typeid(T)))
      throw std::logic_error(
          "collective(): PEs disagree on collective object type at index " +
          std::to_string(idx));
    lk.unlock();
    wait_until([this, idx] {
      std::lock_guard<std::mutex> g(coll_mu_);
      return collectives_[idx].object != nullptr || collectives_[idx].poisoned;
    });
    std::lock_guard<std::mutex> g(coll_mu_);
    if (collectives_[idx].poisoned) {
      // Rethrow the constructing PE's exception so every PE observes the
      // same failure (SPMD code typically catches the same type on all
      // ranks — e.g. invalid Options throw std::invalid_argument
      // everywhere).
      if (collectives_[idx].error)
        std::rethrow_exception(collectives_[idx].error);
      throw std::logic_error(
          "collective(): construction failed on another PE at index " +
          std::to_string(idx));
    }
    return std::static_pointer_cast<T>(collectives_[idx].object);
  }

  /// The scheduler of the launch currently running.
  static Scheduler* instance();

 private:
  struct PeSlot {
    std::unique_ptr<Fiber> fiber;
    std::function<bool()> blocked_on;  // empty => runnable
  };
  struct Entry {
    std::type_index type;
    std::shared_ptr<void> object;
    bool poisoned = false;
    std::exception_ptr error;  // the factory's exception, rethrown on waiters
  };

  void run_fiber();
  void run_threads(Backend backend);

  LaunchConfig cfg_;
  std::function<void(int)> body_;
  std::vector<PeSlot> pes_;
  std::vector<std::size_t> next_collective_index_;
  // deque: Entry addresses stay stable while workers push concurrently
  // (indices are still re-resolved under coll_mu_ for reads).
  std::deque<Entry> collectives_;
  std::mutex coll_mu_;
};

/// Run `body` as an SPMD program over cfg.num_pes cooperative PEs.
void launch(const LaunchConfig& cfg, const std::function<void()>& body);

/// Variant receiving the PE rank as an argument.
void launch(const LaunchConfig& cfg, const std::function<void(int)>& body);

namespace detail {
/// The PE running on this thread; -1 outside any PE fiber (scheduler
/// context, or no launch at all). Thread-local so each worker of the
/// threads backend tracks the fiber it is running. Constant-initialised,
/// so reading it is one TLS load with no initialisation guard.
extern constinit thread_local int g_current_pe;
}  // namespace detail

/// SPMD context queries. my_pe() is -1 outside a PE fiber and is read on
/// every sim-PAPI charge, hence inline; the others are only valid inside a
/// launch.
inline int my_pe() { return detail::g_current_pe; }
int n_pes();
bool in_spmd_region();

/// Cooperative scheduling primitives for substrate layers.
void yield();
void wait_until(std::function<bool()> pred);

/// Scheduler tick hook: invoked once per round-robin sweep (after every
/// runnable PE got a turn), outside any PE context (my_pe() == -1). This
/// is the seam the metrics sampler hangs off — it sees the whole fleet
/// between fiber slices without instrumenting any PE's code path.
/// Returns the previously installed hook so callers can chain/restore;
/// pass an empty function to uninstall. Under the threads backend the hook
/// installed on the launching thread is captured at launch and invoked by
/// worker 0 after each of its sweeps — install it before launch.
using TickHook = std::function<void()>;
TickHook set_tick_hook(TickHook hook);

/// See Scheduler::collective.
template <class T, class Factory>
std::shared_ptr<T> collective(Factory&& make) {
  Scheduler* s = Scheduler::instance();
  if (s == nullptr)
    throw std::logic_error("collective() called outside an SPMD launch");
  return s->collective<T>(std::forward<Factory>(make));
}

}  // namespace ap::rt
