// Stackful cooperative fibers with a user-space context switch.
//
// A Fiber owns a private stack and a user entry function. Control moves
// strictly between a fiber and the scheduler context that resumed it:
// resume() enters the fiber, Fiber::yield() (called from inside the fiber)
// returns to the resumer. There is no preemption; this is the substrate for
// the deterministic SPMD scheduler in scheduler.hpp, where one fiber plays
// the role of one OpenSHMEM processing element (PE).
//
// On x86-64 a switch is a short assembly routine in fiber.cpp: it pushes
// the callee-saved registers and the MXCSR and x87 control words onto the
// outgoing stack, saves rsp in the Fiber and loads the incoming one. It
// makes no system call. Every other target switches with POSIX
// getcontext/makecontext/swapcontext instead. The routine keeps no CET
// shadow stack, so the root CMakeLists.txt builds x86-64 with
// -fcf-protection=branch; a build outside it whose flags emit shadow-stack
// code (__CET__ & 2, e.g. a toolchain default of -fcf-protection=full)
// also gets the swapcontext code, which is safe under shadow stacks.
//
// Contract of a switch:
//   * floating-point control (rounding mode, exception masks) belongs to
//     each context: fesetround() inside a fiber neither leaks into its
//     resumer nor is lost across the fiber's yields;
//   * with AP_FIBER_USER_SWITCH the signal mask belongs to the thread, not
//     to a context: a switch neither saves nor restores it, so a fiber that
//     blocks a signal blocks it for its resumer too. The swapcontext
//     fallback still saves and restores a mask per context, with a system
//     call on every switch.
#pragma once

#include <atomic>
#include <cstddef>
#include <exception>
#include <functional>
#include <memory>

#if defined(__x86_64__) && !(defined(__CET__) && (__CET__ & 2))
/// Defined when switches take the x86-64 user-space routine (see above):
/// on x86-64 unless foreign flags ask for shadow-stack code.
#define AP_FIBER_USER_SWITCH 1
#endif

namespace ap::rt {

/// One cooperative stackful coroutine.
///
/// Lifecycle: Created -> (resume/yield)* -> Finished. A fiber that threw is
/// Finished as well; the exception is captured and rethrown from resume() in
/// the resumer's context so errors propagate out of launch().
class Fiber {
 public:
  enum class State { Created, Runnable, Running, Finished };

  static constexpr std::size_t kDefaultStackBytes = 1u << 20;  // 1 MiB

  explicit Fiber(std::function<void()> entry,
                 std::size_t stack_bytes = kDefaultStackBytes);
  ~Fiber();

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  /// Transfer control into the fiber until it yields or finishes.
  /// Must not be called from inside any fiber owned by the same thread
  /// unless that fiber is the scheduler itself. Rethrows any exception the
  /// fiber's entry function escaped with.
  void resume();

  /// Called from inside a running fiber: suspend and return control to
  /// whoever called resume(). Undefined behaviour if no fiber is running.
  static void yield();

  [[nodiscard]] State state() const {
    return state_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] bool finished() const {
    return state() == State::Finished;
  }

 private:
  static void trampoline();

  std::function<void()> entry_;
  std::unique_ptr<unsigned char[]> stack_;
  std::size_t stack_bytes_;
  // Saved contexts: the fiber's own while it is suspended, its resumer's
  // while it runs. With AP_FIBER_USER_SWITCH each is a stack pointer into
  // the stack it saved; otherwise each points at a ucontext_t kept at the
  // top of stack_ (fiber.cpp).
  void* context_ = nullptr;
  void* return_context_ = nullptr;
  std::exception_ptr pending_exception_;
  // Atomic so the threads backend's deadlock monitor may inspect fibers
  // owned by other workers; all transitions stay on the owning thread.
  std::atomic<State> state_{State::Created};

  // AddressSanitizer fiber-switch bookkeeping (see fiber.cpp; unused and
  // zero-cost in non-sanitized builds): the fiber's saved fake stack and
  // the resumer's stack extents, captured on each entry.
  void* asan_fake_stack_ = nullptr;
  const void* asan_resumer_bottom_ = nullptr;
  std::size_t asan_resumer_size_ = 0;

  // ThreadSanitizer fiber-switch bookkeeping (see fiber.cpp; unused in
  // non-TSan builds): the TSan fiber object backing this Fiber (created
  // lazily on first resume, destroyed with the Fiber) and the resumer's
  // TSan fiber, captured on each entry so yield()/exit can switch back.
  void* tsan_fiber_ = nullptr;
  void* tsan_from_ = nullptr;
};

}  // namespace ap::rt
