// Deterministic, seed-driven fault injection for the minishmem/conveyor
// stack (ROADMAP: "handle as many scenarios as you can imagine").
//
// The substrate calls tiny hooks at its perturbation points; when a Plan is
// installed the hooks roll per-PE SplitMix64 dice and decide to
//   * delay / duplicate / reorder nbi-put completions inside quiet()
//     (all legal OpenSHMEM weak-ordering behaviours — quiet still completes
//     every put before it returns),
//   * slow one PE down by a straggler factor (extra cooperative yields at
//     barriers and conveyor advances),
//   * stall one PE's conveyor advance() for bounded windows (the progress
//     loop "stops being called" for a while),
//   * kill one PE at its k-th barrier_all(): shmem marks the PE dead and
//     throws PeKilledError through the PE body; the launch keeps running
//     with the survivors.
//
// Determinism: every decision is drawn from a per-PE SplitMix64 stream
// seeded with (seed, pe) only. The same seed against the same program
// yields the same schedule — the same quiet completion order that the
// profiling interface's conformance hooks report, event for event; tests
// assert exactly that.
//
// Plans usually come from the environment (Plan::from_env, ACTORPROF_FI_*);
// shmem::run() auto-installs an env plan so any existing binary can be
// fault-injected without code changes. See docs/FAULT_INJECTION.md.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace ap::fi {

/// Thrown through a PE's body when the plan kills it at a barrier. The
/// shmem::run body wrapper contains it; user code should not catch it.
class PeKilledError : public std::runtime_error {
 public:
  PeKilledError(int pe, int barrier_index);
  [[nodiscard]] int pe() const { return pe_; }
  [[nodiscard]] int barrier_index() const { return barrier_index_; }

 private:
  int pe_;
  int barrier_index_;
};

/// What on_barrier asks the substrate to do.
enum class BarrierAction { none, kill };

/// An injection plan. Probabilities are per-quiet; -1 disables a PE knob.
struct Plan {
  std::uint64_t seed = 1;

  // quiet() completion perturbations
  double delay_put_prob = 0.0;    ///< P[quiet yields mid-completion]
  int delay_yields = 3;           ///< scheduler yields per delayed quiet
  double dup_put_prob = 0.0;      ///< P[one pending put applied twice]
  double reorder_put_prob = 0.0;  ///< P[completion order shuffled]

  // straggler
  int straggler_pe = -1;
  double straggler_factor = 1.0;  ///< >= 1; extra yields ~ factor-1

  // stalled conveyor advance() windows (bounded so runs still terminate)
  int stall_pe = -1;
  int stall_every = 64;  ///< a window may start every stall_every advances
  int stall_len = 8;     ///< advances stalled per window (< stall_every)

  // kill one PE at its k-th barrier_all() (0-based count on that PE)
  int kill_pe = -1;
  int kill_at_barrier = 1;

  [[nodiscard]] bool enabled() const;

  /// Strict ACTORPROF_FI_* parse (same policy as ACTORPROF_METRICS*):
  /// malformed values throw std::invalid_argument naming the variable.
  static Plan from_env();
};

/// How quiet() should complete its `n` pending puts: apply
/// order[0..delayed_from), yield `yields` times, apply the rest. `order`
/// contains every index in [0, n) at least once; duplicates are legal.
struct QuietSchedule {
  std::vector<std::uint32_t> order;
  std::size_t delayed_from = 0;
  int yields = 0;
};

namespace detail {
/// Whether a plan is installed (faultinject.cpp). Read inline on every
/// conveyor flush, advance and delivered run; set only outside a launch.
extern bool g_active;
}  // namespace detail

/// Install/remove the active plan. Installing resets the per-PE streams
/// and the killed set. Not reentrant.
void install(const Plan& plan);
void uninstall();
[[nodiscard]] inline bool active() { return detail::g_active; }
/// The installed plan. Only valid while active().
[[nodiscard]] const Plan& plan();

/// RAII install for tests.
class Session {
 public:
  explicit Session(const Plan& p) { install(p); }
  ~Session() { uninstall(); }
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;
};

// ---- hooks called by the substrate (no-ops unless active()) ---------------

/// Entry of barrier_all() on `pe`: straggler yields happen here; returns
/// BarrierAction::kill exactly once when this is the configured kill point.
BarrierAction on_barrier(int pe);

/// Entry of Conveyor::advance() on `pe`: straggler yields happen here;
/// returns true when this advance call is stalled (no progress this round).
bool on_advance(int pe);

/// Plan the completion schedule for quiet() with `n_pending` staged puts.
/// Returns true and fills `out` when the schedule is perturbed; false means
/// apply in program order (the fast path takes no schedule object).
bool plan_quiet(int pe, std::size_t n_pending, QuietSchedule& out);

/// shmem::run's body wrapper reports a contained kill here.
void note_killed(int pe);

// ---- post-mortem queries (survive uninstall until the next install) -------

[[nodiscard]] bool was_killed(int pe);
[[nodiscard]] const std::vector<int>& killed_pes();
/// Conveyor advance() calls on `pe` that the plan stalled.
[[nodiscard]] std::uint64_t stalled_advances(int pe);

}  // namespace ap::fi
