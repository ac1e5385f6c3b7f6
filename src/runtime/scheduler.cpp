#include "runtime/scheduler.hpp"

#include <atomic>
#include <cassert>
#include <chrono>
#include <exception>
#include <latch>
#include <sstream>
#include <thread>
#include <utility>

namespace ap::rt {

namespace {

// The running launch. A plain global (not thread_local) so the worker
// threads of the threads backend reach the same scheduler: it is written
// on the launching thread before any worker exists and cleared after they
// have all joined, so every access from inside the launch is ordered by
// thread creation/join.
Scheduler* g_scheduler = nullptr;

thread_local TickHook g_tick_hook;

// How long the fleet may make zero progress (no fiber resumed anywhere,
// no worker inside a resume) before the threads backend declares
// deadlock. Predicates only become true through the action of other PEs,
// and every PE action bumps the progress counter, so a quarter second of
// global silence cannot be a transient.
constexpr auto kDeadlockWindow = std::chrono::milliseconds(250);

}  // namespace

// Under the fiber backend only the launching thread sets it.
constinit thread_local int detail::g_current_pe = -1;
using detail::g_current_pe;

TickHook set_tick_hook(TickHook hook) {
  TickHook prev = std::move(g_tick_hook);
  g_tick_hook = std::move(hook);
  return prev;
}

Scheduler::Scheduler(LaunchConfig cfg, std::function<void(int)> body)
    : cfg_(cfg), body_(std::move(body)) {
  if (cfg_.num_pes <= 0)
    throw std::invalid_argument("LaunchConfig: num_pes must be positive");
  if (cfg_.pes_per_node < 0)
    throw std::invalid_argument("LaunchConfig: pes_per_node must be >= 0");
  if (cfg_.num_threads < 0)
    throw std::invalid_argument("LaunchConfig: num_threads must be >= 0");
  if (!body_) throw std::invalid_argument("launch: body is empty");
  pes_.resize(static_cast<std::size_t>(cfg_.num_pes));
  next_collective_index_.assign(static_cast<std::size_t>(cfg_.num_pes), 0);
}

Scheduler::~Scheduler() = default;

Scheduler* Scheduler::instance() { return g_scheduler; }

int Scheduler::current_pe() const { return g_current_pe; }

void Scheduler::run() {
  if (g_scheduler != nullptr)
    throw std::logic_error("launch(): launches cannot nest on one thread");
  // Resolve before publishing anything so a bad ACTORPROF_BACKEND value
  // throws without side effects.
  const Backend backend = resolve_backend(cfg_.backend);
  g_scheduler = this;
  detail::set_current_backend(backend);
  try {
    if (backend == Backend::threads)
      run_threads(backend);
    else
      run_fiber();
  } catch (...) {
    detail::set_current_backend(Backend::fiber);
    g_scheduler = nullptr;
    throw;
  }
  detail::set_current_backend(Backend::fiber);
  g_scheduler = nullptr;
}

void Scheduler::run_fiber() {
  for (int pe = 0; pe < cfg_.num_pes; ++pe) {
    pes_[static_cast<std::size_t>(pe)].fiber = std::make_unique<Fiber>(
        [this, pe] { body_(pe); }, cfg_.stack_bytes);
  }

  std::exception_ptr failure;
  bool all_done = false;
  while (!all_done && !failure) {
    bool progressed = false;
    all_done = true;
    for (int pe = 0; pe < cfg_.num_pes && !failure; ++pe) {
      PeSlot& slot = pes_[static_cast<std::size_t>(pe)];
      if (slot.fiber->finished()) continue;
      all_done = false;
      if (slot.blocked_on) {
        bool ready = false;
        try {
          ready = slot.blocked_on();
        } catch (...) {
          failure = std::current_exception();
          break;
        }
        if (!ready) continue;
        slot.blocked_on = nullptr;
      }
      g_current_pe = pe;
      try {
        slot.fiber->resume();
      } catch (...) {
        failure = std::current_exception();
      }
      g_current_pe = -1;
      progressed = true;
      if (slot.fiber->finished()) {
        // A finished PE must not leave a blocked-on predicate behind.
        slot.blocked_on = nullptr;
      }
    }
    if (!failure && g_tick_hook) {
      try {
        g_tick_hook();
      } catch (...) {
        failure = std::current_exception();
      }
    }
    if (!all_done && !progressed && !failure) {
      std::ostringstream msg;
      msg << "deadlock: all unfinished PEs are blocked (";
      for (int pe = 0; pe < cfg_.num_pes; ++pe) {
        const PeSlot& slot = pes_[static_cast<std::size_t>(pe)];
        if (!slot.fiber->finished()) msg << " PE" << pe;
      }
      msg << " )";
      failure = std::make_exception_ptr(DeadlockError(msg.str()));
    }
  }

  if (failure) std::rethrow_exception(failure);
}

void Scheduler::run_threads(Backend /*backend*/) {
  const int num_pes = cfg_.num_pes;
  const int num_workers = resolve_num_threads(cfg_.num_threads, num_pes);
  // Capture the launching thread's hook: worker 0 plays the role the
  // single scheduling thread plays under the fiber backend.
  const TickHook tick = g_tick_hook;

  std::atomic<std::uint64_t> progress{0};
  std::atomic<int> in_resume{0};
  std::atomic<int> finished_pes{0};
  std::atomic<bool> abort{false};
  std::mutex failure_mu;
  std::exception_ptr failure;
  // All fibers are created by their owning worker (so sanitizer fiber
  // bookkeeping lives on the right thread); nobody sweeps until every
  // slot's fiber pointer is published.
  std::latch fibers_ready(num_workers);

  auto fail = [&](std::exception_ptr e) {
    {
      std::lock_guard<std::mutex> lk(failure_mu);
      if (!failure) failure = std::move(e);
    }
    abort.store(true, std::memory_order_release);
  };

  auto worker_main = [&](int w) {
    const int begin = static_cast<int>(
        (static_cast<long long>(w) * num_pes) / num_workers);
    const int end = static_cast<int>(
        (static_cast<long long>(w + 1) * num_pes) / num_workers);
    for (int pe = begin; pe < end; ++pe) {
      pes_[static_cast<std::size_t>(pe)].fiber = std::make_unique<Fiber>(
          [this, pe] { body_(pe); }, cfg_.stack_bytes);
    }
    fibers_ready.arrive_and_wait();

    int unfinished = end - begin;
    std::uint64_t last_progress = progress.load(std::memory_order_relaxed);
    auto last_change = std::chrono::steady_clock::now();
    int idle_spins = 0;

    while (!abort.load(std::memory_order_acquire)) {
      // Worker 0 stays alive until the whole fleet is done: it owns the
      // tick hook and the deadlock monitor. Other workers leave as soon
      // as their own PEs have finished.
      if (w == 0) {
        if (finished_pes.load(std::memory_order_acquire) >= num_pes) break;
      } else if (unfinished == 0) {
        break;
      }

      bool progressed = false;
      for (int pe = begin;
           pe < end && !abort.load(std::memory_order_relaxed); ++pe) {
        PeSlot& slot = pes_[static_cast<std::size_t>(pe)];
        if (slot.fiber->finished()) continue;
        if (slot.blocked_on) {
          bool ready = false;
          try {
            ready = slot.blocked_on();
          } catch (...) {
            fail(std::current_exception());
            break;
          }
          if (!ready) continue;
          slot.blocked_on = nullptr;
        }
        g_current_pe = pe;
        in_resume.fetch_add(1, std::memory_order_acq_rel);
        try {
          slot.fiber->resume();
        } catch (...) {
          fail(std::current_exception());
        }
        in_resume.fetch_sub(1, std::memory_order_acq_rel);
        g_current_pe = -1;
        progressed = true;
        progress.fetch_add(1, std::memory_order_relaxed);
        if (slot.fiber->finished()) {
          slot.blocked_on = nullptr;
          --unfinished;
          finished_pes.fetch_add(1, std::memory_order_release);
        }
      }

      if (w == 0 && tick && !abort.load(std::memory_order_relaxed)) {
        try {
          tick();
        } catch (...) {
          fail(std::current_exception());
        }
      }

      if (progressed) {
        idle_spins = 0;
        continue;
      }
      // Nothing runnable here right now: back off so blocked fleets don't
      // burn the cores their peers need.
      if (++idle_spins < 64)
        std::this_thread::yield();
      else
        std::this_thread::sleep_for(std::chrono::microseconds(50));

      if (w == 0) {
        const std::uint64_t p = progress.load(std::memory_order_relaxed);
        if (p != last_progress) {
          last_progress = p;
          last_change = std::chrono::steady_clock::now();
        } else if (finished_pes.load(std::memory_order_acquire) < num_pes &&
                   in_resume.load(std::memory_order_acquire) == 0 &&
                   std::chrono::steady_clock::now() - last_change >
                       kDeadlockWindow) {
          // No fiber anywhere has run for the whole window and none is
          // mid-resume: every unfinished PE is parked on a predicate no
          // one can flip. Same message shape as the fiber backend.
          std::ostringstream msg;
          msg << "deadlock: all unfinished PEs are blocked (";
          for (int pe = 0; pe < num_pes; ++pe) {
            const PeSlot& slot = pes_[static_cast<std::size_t>(pe)];
            if (slot.fiber && !slot.fiber->finished()) msg << " PE" << pe;
          }
          msg << " )";
          fail(std::make_exception_ptr(DeadlockError(msg.str())));
        }
      }
    }
  };

  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(num_workers));
  for (int w = 0; w < num_workers; ++w)
    workers.emplace_back(worker_main, w);
  for (auto& t : workers) t.join();

  if (failure) std::rethrow_exception(failure);
}

void Scheduler::yield_current() {
  assert(g_current_pe >= 0 && "yield() outside an SPMD region");
  Fiber::yield();
}

void Scheduler::wait_until(std::function<bool()> pred) {
  assert(g_current_pe >= 0 && "wait_until() outside an SPMD region");
  if (pred()) return;
  PeSlot& slot = pes_[static_cast<std::size_t>(g_current_pe)];
  slot.blocked_on = std::move(pred);
  Fiber::yield();
  // The scheduler only resumes us once the predicate held. Under the fiber
  // backend nothing can have invalidated it since (single-threaded); under
  // the threads backend another thread may have raced past a non-monotonic
  // predicate, which OpenSHMEM wait-until semantics permit ("the condition
  // held at some point") — see docs/PERFORMANCE.md.
}

void launch(const LaunchConfig& cfg, const std::function<void(int)>& body) {
  Scheduler sched(cfg, body);
  sched.run();
}

void launch(const LaunchConfig& cfg, const std::function<void()>& body) {
  launch(cfg, [&body](int) { body(); });
}

int n_pes() {
  Scheduler* s = Scheduler::instance();
  if (s == nullptr) throw std::logic_error("n_pes() outside an SPMD launch");
  return s->num_pes();
}

bool in_spmd_region() {
  Scheduler* s = Scheduler::instance();
  return s != nullptr && s->current_pe() >= 0;
}

void yield() {
  Scheduler* s = Scheduler::instance();
  if (s == nullptr) throw std::logic_error("yield() outside an SPMD launch");
  s->yield_current();
}

void wait_until(std::function<bool()> pred) {
  Scheduler* s = Scheduler::instance();
  if (s == nullptr)
    throw std::logic_error("wait_until() outside an SPMD launch");
  s->wait_until(std::move(pred));
}

}  // namespace ap::rt
