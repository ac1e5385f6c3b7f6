#include "runtime/fiber.hpp"

#include <cassert>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <utility>

#if !defined(AP_FIBER_USER_SWITCH)
#include <ucontext.h>

#include <new>
#endif

// AddressSanitizer tracks one shadow region per thread stack; every
// context switch must be announced so ASan switches its notion of the live
// stack (and so exception unwinds on a fiber stack don't get flagged as
// stack-buffer underflows on the main stack). See sanitizer
// common_interface_defs.h and google/sanitizers#189.
#if defined(__SANITIZE_ADDRESS__)
#define AP_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define AP_ASAN_FIBERS 1
#endif
#endif

#if defined(AP_ASAN_FIBERS)
#include <sanitizer/common_interface_defs.h>
#endif

// ThreadSanitizer models each stack as a "fiber" with its own shadow
// clock; like ASan, every switch must be announced or TSan reports
// wild data races between the stacks (and crashes on the context switch).
// See sanitizer tsan_interface.h. Mirrors the ASan annotations above —
// the tsan preset in CMakePresets.json builds with -fsanitize=thread.
#if defined(__SANITIZE_THREAD__)
#define AP_TSAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define AP_TSAN_FIBERS 1
#endif
#endif

#if defined(AP_TSAN_FIBERS)
#include <sanitizer/tsan_interface.h>
#endif

namespace ap::rt {

namespace {
// The fiber currently running on this thread. thread_local both isolates
// independent launches on different threads and lets the threads backend's
// workers each run their own fiber concurrently — a fiber is only ever
// created/resumed on the one thread that owns it.
thread_local Fiber* g_current_fiber = nullptr;
}  // namespace

#if defined(AP_FIBER_USER_SWITCH)

// ap_fiber_switch(save, load): push the callee-saved registers (SysV
// x86-64: rbp, rbx, r12-r15) and the MXCSR and x87 control words, store
// rsp to *save, then continue on the stack saved at `load` by popping the
// same frame and returning into it. Everything else the ABI lets a call
// clobber, so a plain call is a complete switch.
extern "C" [[gnu::visibility("hidden")]] void ap_fiber_switch(void** save,
                                                              void* load);
asm(R"(
  .pushsection .text
  .p2align 4
  .globl ap_fiber_switch
  .hidden ap_fiber_switch
  .type ap_fiber_switch, @function
ap_fiber_switch:
  pushq %rbp
  pushq %rbx
  pushq %r12
  pushq %r13
  pushq %r14
  pushq %r15
  subq $8, %rsp
  stmxcsr (%rsp)
  fnstcw 4(%rsp)
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  ldmxcsr (%rsp)
  fldcw 4(%rsp)
  addq $8, %rsp
  popq %r15
  popq %r14
  popq %r13
  popq %r12
  popq %rbx
  popq %rbp
  ret
  .size ap_fiber_switch, .-ap_fiber_switch
  .popsection
)");

namespace {
/// Save the running context into *save and continue the one at `load`.
inline void switch_context(void** save, void* load) {
  ap_fiber_switch(save, load);
}
}  // namespace

#else

namespace {
/// The two contexts of a fiber, kept at the top of its stack allocation.
struct UcontextPair {
  ucontext_t fiber;
  ucontext_t resumer;
};

/// Save the running context into the ucontext_t *save points at and
/// continue the one at `load`.
inline void switch_context(void** save, void* load) {
  swapcontext(static_cast<ucontext_t*>(*save), static_cast<ucontext_t*>(load));
}
}  // namespace

#endif

Fiber::Fiber(std::function<void()> entry, std::size_t stack_bytes)
    : entry_(std::move(entry)),
      stack_(new unsigned char[stack_bytes]),
      stack_bytes_(stack_bytes) {
  if (!entry_) throw std::invalid_argument("Fiber: entry function is empty");
  if (stack_bytes_ < 16 * 1024)
    throw std::invalid_argument("Fiber: stack too small (< 16 KiB)");
}

Fiber::~Fiber() {
#if defined(AP_TSAN_FIBERS)
  if (tsan_fiber_ != nullptr) __tsan_destroy_fiber(tsan_fiber_);
#endif
}

void Fiber::trampoline() {
  Fiber* self = g_current_fiber;
  assert(self != nullptr);
#if defined(AP_ASAN_FIBERS)
  // First entry: no fake stack to restore; capture the resumer's stack so
  // yield()/the final switch below can announce the way back.
  __sanitizer_finish_switch_fiber(nullptr, &self->asan_resumer_bottom_,
                                  &self->asan_resumer_size_);
#endif
  try {
    self->entry_();
  } catch (...) {
    self->pending_exception_ = std::current_exception();
  }
  self->state_ = State::Finished;
#if defined(AP_ASAN_FIBERS)
  // The fiber is done: null fake-stack save destroys its fake frames, and
  // the switch right below lands in resume().
  __sanitizer_start_switch_fiber(nullptr, self->asan_resumer_bottom_,
                                 self->asan_resumer_size_);
#endif
#if defined(AP_TSAN_FIBERS)
  // Announce the transfer back to the resumer.
  __tsan_switch_to_fiber(self->tsan_from_, 0);
#endif
  // Switch out explicitly: the fiber is Finished and never resumed, so
  // control never comes back. trampoline has no caller to return to (its
  // primed return address is zero), and returning into uc_link instead
  // would run this function's instrumented epilogue *after* the switch
  // announcements above, so under TSan each finished fiber would pop one
  // frame from the resumer's shadow stack until it underflows.
  switch_context(&self->context_, self->return_context_);
}

void Fiber::resume() {
  if (state_ == State::Finished)
    throw std::logic_error("Fiber::resume: fiber already finished");
  if (state_ == State::Running)
    throw std::logic_error("Fiber::resume: fiber already running");

  if (state_ == State::Created) {
    const std::uintptr_t base = reinterpret_cast<std::uintptr_t>(stack_.get());
#if defined(AP_FIBER_USER_SWITCH)
    // Prime the stack with the frame ap_fiber_switch pops, so the first
    // switch returns into trampoline with rsp + 8 16-byte aligned, as after
    // a call. The control words are the resumer's, as getcontext would
    // capture; the frame pointer and trampoline's return address are zero,
    // so frame-pointer walks and unwinders stop at trampoline.
    std::uint32_t mxcsr = 0;
    std::uint16_t x87_cw = 0;
    asm volatile("stmxcsr %0\n\tfnstcw %1" : "=m"(mxcsr), "=m"(x87_cw));
    const std::uint64_t frame[9] = {
        mxcsr | std::uint64_t{x87_cw} << 32,  // control words
        0, 0, 0, 0, 0, 0,                     // r15 r14 r13 r12 rbx rbp
        reinterpret_cast<std::uintptr_t>(&trampoline),
        0};  // trampoline's return address
    const std::uintptr_t top = (base + stack_bytes_) & ~std::uintptr_t{15};
    void* sp = reinterpret_cast<void*>(top - sizeof frame);
    std::memcpy(sp, frame, sizeof frame);
    context_ = sp;
#else
    const std::uintptr_t at = (base + stack_bytes_ - sizeof(UcontextPair)) &
                              ~std::uintptr_t{alignof(UcontextPair) - 1};
    auto* contexts = new (reinterpret_cast<void*>(at)) UcontextPair{};
    context_ = &contexts->fiber;
    return_context_ = &contexts->resumer;
    if (getcontext(&contexts->fiber) != 0)
      throw std::runtime_error("Fiber: getcontext failed");
    contexts->fiber.uc_stack.ss_sp = stack_.get();
    contexts->fiber.uc_stack.ss_size = at - base;
    contexts->fiber.uc_link = &contexts->resumer;
    makecontext(&contexts->fiber, reinterpret_cast<void (*)()>(&trampoline),
                0);
#endif
  }

  Fiber* previous = g_current_fiber;
  g_current_fiber = this;
  state_ = State::Running;
#if defined(AP_ASAN_FIBERS)
  void* resumer_fake_stack = nullptr;
  __sanitizer_start_switch_fiber(&resumer_fake_stack, stack_.get(),
                                 stack_bytes_);
#endif
#if defined(AP_TSAN_FIBERS)
  // Lazy creation keeps never-resumed fibers free; the resumer may differ
  // between entries (nested schedulers), so re-capture it every time.
  if (tsan_fiber_ == nullptr) tsan_fiber_ = __tsan_create_fiber(0);
  tsan_from_ = __tsan_get_current_fiber();
  __tsan_switch_to_fiber(tsan_fiber_, 0);
#endif
  switch_context(&return_context_, context_);
#if defined(AP_ASAN_FIBERS)
  __sanitizer_finish_switch_fiber(resumer_fake_stack, nullptr, nullptr);
#endif
  g_current_fiber = previous;
  if (state_ == State::Running) state_ = State::Runnable;

  if (pending_exception_) {
    std::exception_ptr ex = std::exchange(pending_exception_, nullptr);
    std::rethrow_exception(ex);
  }
}

void Fiber::yield() {
  Fiber* self = g_current_fiber;
  assert(self != nullptr && "Fiber::yield called outside any fiber");
#if defined(AP_ASAN_FIBERS)
  __sanitizer_start_switch_fiber(&self->asan_fake_stack_,
                                 self->asan_resumer_bottom_,
                                 self->asan_resumer_size_);
#endif
#if defined(AP_TSAN_FIBERS)
  __tsan_switch_to_fiber(self->tsan_from_, 0);
#endif
  switch_context(&self->context_, self->return_context_);
#if defined(AP_ASAN_FIBERS)
  // Back inside the fiber (a later resume); the resumer may differ, so
  // re-capture its stack extents.
  __sanitizer_finish_switch_fiber(self->asan_fake_stack_,
                                  &self->asan_resumer_bottom_,
                                  &self->asan_resumer_size_);
#endif
}

}  // namespace ap::rt
