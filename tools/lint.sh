#!/usr/bin/env bash
# Repo lint gate (docs/CHECKING.md): cheap static rules that keep the
# profiling and aggregation layers honest, plus clang-tidy when available.
# Run from anywhere; exits nonzero on any violation.
#
# Rules:
#   1. No raw malloc/calloc/realloc/free in the conveyor/shmem hot paths —
#      buffers come from the symmetric heap or owned containers, so every
#      byte is visible to the profiler and the conformance checker.
#   2. Raw `new`/`delete` in those files only as smart-pointer factory
#      construction (`shared_ptr<T>(new T(...))` for private ctors).
#   3. Symmetric-heap address translation (`translate(`) only inside
#      src/shmem/shmem.cpp: every RMA goes through the profiling interface,
#      never around it.
#   4. Apps and examples never install observers themselves
#      (set_rma_observer & co. belong to the Profiler and tests).
#   5. The selector must report handler batches via on_handler_batch —
#      the observer batch-accounting API the profiler's count-only modes
#      and the metrics layer depend on.
#   6. Tests never join a path straight onto ::testing::TempDir(): ctest -j
#      runs every case as its own process, and a fixed name is shared by
#      all of them. Scratch paths come from tests/test_tmpdir.hpp.
#   7. The context-switch primitives (swapcontext, makecontext,
#      getcontext, setcontext and the x86-64 routine ap_fiber_switch) appear
#      only in src/runtime/fiber.cpp: every PE switch goes through Fiber,
#      so a switch with a system call in it cannot come back elsewhere.
#   8. The container sniffers is_binary_trace and is_compressed_trace are
#      called only in the src/core/trace_* files: the trace layer alone
#      decides between CSV and .apt, and everyone else reads and writes
#      through its one reader and writer.
#   9. No per-send expansion of a logical trace outside tests and benches:
#      `.records()` (LogicalSendView, LogicalSendLog) is called only under
#      tests/ and bench/. The writers, the loader, serve and the heatmaps
#      read runs, so a trace costs memory per run, not per send.
#  10. clang-tidy over the check/runtime/shmem sources when installed
#      (.clang-tidy at the repo root); skipped with a note otherwise.
set -uo pipefail

cd "$(dirname "$0")/.."

fail=0
violation() {
  echo "lint: $1" >&2
  echo "$2" | sed 's/^/    /' >&2
  fail=1
}

hot_paths=(src/conveyor/*.cpp src/shmem/shmem.cpp)

# Rule 1: no raw C allocation in hot paths (word-boundary spares
# symm_malloc/calloc_n style names).
hits=$(grep -nE '\b(malloc|calloc|realloc|free)[[:space:]]*\(' \
  "${hot_paths[@]}" | grep -vE '^\S+:[0-9]+:[[:space:]]*(//|\*)' || true)
if [ -n "${hits}" ]; then
  violation "raw C allocation in a conveyor/shmem hot path (rule 1)" "${hits}"
fi

# Rule 2: `new`/`delete` only as `(new Type...)` factory construction.
hits=$(grep -nE '\bnew\b|\bdelete\b' "${hot_paths[@]}" \
  | grep -vE '^\S+:[0-9]+:[[:space:]]*(//|\*)' \
  | grep -vE '\(new [A-Z]|^\S+:[0-9]+:[[:space:]]*new [A-Z]' \
  | grep -vE '#include' || true)
if [ -n "${hits}" ]; then
  violation "raw new/delete in a conveyor/shmem hot path (rule 2)" "${hits}"
fi

# Rule 3: translate( confined to src/shmem/shmem.cpp. (Tests excluded:
# they may *mention* it in comments but cannot call it — it is file-local.)
hits=$(grep -rnE '\btranslate\(' src examples --include='*.cpp' \
  --include='*.hpp' | grep -v '^src/shmem/shmem.cpp:' || true)
if [ -n "${hits}" ]; then
  violation "symmetric-heap translate() used outside shmem.cpp (rule 3)" \
    "${hits}"
fi

# Rule 4: observer installation stays out of apps/examples.
hits=$(grep -rnE 'set_(rma|transfer|actor)_observer[[:space:]]*\(' \
  src/apps examples --include='*.cpp' --include='*.hpp' 2>/dev/null || true)
if [ -n "${hits}" ]; then
  violation "apps/examples must not install observers (rule 4)" "${hits}"
fi

# Rule 5: the selector still uses the batch-accounting observer API.
if ! grep -q 'on_handler_batch' src/actor/selector.hpp; then
  violation "selector no longer reports on_handler_batch (rule 5)" \
    "src/actor/selector.hpp"
fi

# Rule 6: per-test scratch directories only.
hits=$(grep -rnE 'TempDir\(\)\)?[[:space:]]*/' tests --include='*.cpp' \
  --include='*.hpp' | grep -v '^tests/test_tmpdir.hpp:' || true)
if [ -n "${hits}" ]; then
  violation "fixed path under ::testing::TempDir() in a test (rule 6)" \
    "${hits}"
fi

# Rule 7: context switches live in the Fiber implementation only (comment
# lines may name them).
hits=$(grep -rnE \
  '\b(swapcontext|makecontext|getcontext|setcontext|ap_fiber_switch)\b' \
  src examples bench perfbench tests tools --include='*.cpp' \
  --include='*.hpp' --include='*.h' | grep -v '^src/runtime/fiber.cpp:' \
  | grep -vE '^\S+:[0-9]+:[[:space:]]*(//|\*)' || true)
if [ -n "${hits}" ]; then
  violation "context-switch primitive outside src/runtime/fiber.cpp (rule 7)" \
    "${hits}"
fi

# Rule 8: the CSV-or-.apt decision stays in the trace layer (comment lines
# may name the sniffers).
hits=$(grep -rnE '\b(is_binary_trace|is_compressed_trace)[[:space:]]*\(' \
  src examples --include='*.cpp' --include='*.hpp' \
  | grep -vE '^src/core/trace_[^/]*:' \
  | grep -vE '^\S+:[0-9]+:[[:space:]]*(//|\*)' || true)
if [ -n "${hits}" ]; then
  violation "container sniffer called outside src/core/trace_* (rule 8)" \
    "${hits}"
fi

# Rule 9: logical traces stay runs in the program (comment lines may name
# records()).
hits=$(grep -rnE '\.records\(\)' src examples --include='*.cpp' \
  --include='*.hpp' | grep -vE '^\S+:[0-9]+:[[:space:]]*(//|\*)' || true)
if [ -n "${hits}" ]; then
  violation "logical trace expanded per send outside tests/bench (rule 9)" \
    "${hits}"
fi

if [ "${fail}" -ne 0 ]; then
  echo "lint: FAILED" >&2
  exit 1
fi
echo "lint: grep rules OK"

# Rule 10: clang-tidy (optional — absent from minimal containers).
if command -v clang-tidy >/dev/null 2>&1; then
  tidy_files=(src/check/*.cpp src/runtime/*.cpp src/shmem/*.cpp
              src/conveyor/*.cpp src/core/config.cpp)
  if clang-tidy --quiet "${tidy_files[@]}" -- -std=c++20 -Isrc; then
    echo "lint: clang-tidy OK"
  else
    echo "lint: clang-tidy FAILED" >&2
    exit 1
  fi
else
  echo "lint: clang-tidy not installed — skipping (CI runs it)"
fi

echo "lint: OK"
