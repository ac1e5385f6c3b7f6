// Execution-backend selection for the SPMD runtime.
//
// The runtime can drive the P simulated PEs two ways:
//   * Backend::fiber   — every PE is a cooperative fiber (fiber.hpp: a
//                        user-space context switch on x86-64) on the
//                        launching thread, scheduled round-robin. Fully
//                        deterministic; the reproducibility mode and the
//                        default. Required by fault injection.
//   * Backend::threads — the PEs (still fibers, so blocking semantics are
//                        identical) are partitioned over N OS worker
//                        threads and run in parallel on real cores.
//
// Selection order: LaunchConfig::backend wins when not auto_; otherwise
// ACTORPROF_BACKEND ("fiber" or "threads", strict parse) decides; otherwise
// fiber. Worker count: LaunchConfig::num_threads when > 0, else
// ACTORPROF_THREADS (strict positive integer), else hardware concurrency,
// always clamped to [1, num_pes]. See docs/ARCHITECTURE.md ("Execution
// backends") and docs/PERFORMANCE.md (threading model).
#pragma once

namespace ap::rt {

enum class Backend {
  auto_,    ///< defer to ACTORPROF_BACKEND, defaulting to fiber
  fiber,    ///< deterministic single-threaded round-robin (default)
  threads,  ///< PEs multiplexed over real OS worker threads
};

/// Resolve an auto_ request against ACTORPROF_BACKEND (strict parse:
/// exactly "fiber" or "threads"; anything else throws
/// std::invalid_argument). Never returns auto_.
[[nodiscard]] Backend resolve_backend(Backend requested);

/// Resolve the worker-thread count for the threads backend: an explicit
/// `requested` > 0 wins, else ACTORPROF_THREADS (strict positive integer,
/// throws std::invalid_argument on anything else), else
/// std::thread::hardware_concurrency(). The result is clamped to
/// [1, num_pes] — more workers than PEs would only idle.
[[nodiscard]] int resolve_num_threads(int requested, int num_pes);

/// Backend of the launch currently running, Backend::fiber when no launch
/// is active (the degenerate "everything on this thread" case). Set by the
/// scheduler before PE bodies start, cleared after they all join, so any
/// code running inside a launch sees a stable value.
[[nodiscard]] Backend current_backend();

namespace detail {
/// Scheduler-internal: publish/clear the running backend.
void set_current_backend(Backend b);
}  // namespace detail

}  // namespace ap::rt
