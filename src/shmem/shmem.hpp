// minishmem: an in-process OpenSHMEM-compatible substrate.
//
// This is the simulated "cluster" layer described in DESIGN.md. It provides
// the subset of OpenSHMEM 1.4/1.5 that Conveyors, HClib-Actor and the
// bundled apps use: symmetric allocation, blocking and non-blocking puts,
// quiet, shmem_ptr (intra-node direct load/store), a fetch-add atomic,
// barriers and reductions — plus get, sync_all and wait_until, which the
// BSP conformance checker's tests drive. Non-blocking puts are *staged*:
// the data only becomes visible at the target after the initiating PE
// calls quiet() (or a routine that implies it). This is a legal OpenSHMEM
// behaviour and it is exactly the property ActorProf's physical trace
// depends on — see paper §III-C.
//
// Usage:
//   ap::shmem::run(cfg, [] {
//     long* x = ap::shmem::calloc_n<long>(8);   // symmetric
//     ap::shmem::barrier_all();
//     ap::shmem::put(&x[0], &v, sizeof v, (my_pe()+1) % n_pes());
//     ...
//   });
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <source_location>

#include "runtime/scheduler.hpp"
#include "shmem/symmetric_heap.hpp"
#include "shmem/topology.hpp"

namespace ap::shmem {

/// Run `body` as an SPMD program with a live minishmem world.
/// Equivalent to shmem_init()/shmem_finalize() around every PE's body.
void run(const rt::LaunchConfig& cfg, const std::function<void()>& body);

/// ---- Queries (valid only inside run()) -----------------------------------
int my_pe();
int n_pes();
const Topology& topology();

/// ---- Fault-injection liveness (docs/FAULT_INJECTION.md) -------------------
/// A PE killed by the fault-injection layer is marked dead: it stops
/// participating in collectives (they complete over the live PEs) and the
/// conveyor layer accounts its in-flight items as lost. All PEs are alive
/// unless an ACTORPROF_FI_KILL_PE plan fired.
bool pe_alive(int pe);
int live_pes();

/// ---- Symmetric memory -----------------------------------------------------
/// Collective in the OpenSHMEM sense: every PE must perform the same
/// allocation sequence. Memory is zero-initialized (like shmem_calloc).
void* symm_malloc(std::size_t bytes);
void symm_free(void* p);

template <class T>
T* calloc_n(std::size_t n) {
  return static_cast<T*>(symm_malloc(n * sizeof(T)));
}

/// shmem_ptr: a direct pointer to `target` (a symmetric address in the
/// caller's address space) as it exists on `pe`. Returns nullptr when `pe`
/// is on a different node — matching real shmem_ptr, which only works over
/// shared memory.
void* ptr(void* target, int pe);
template <class T>
T* ptr(T* target, int pe) {
  return static_cast<T*>(ptr(static_cast<void*>(target), pe));
}

/// ---- RMA -------------------------------------------------------------------
/// Every RMA routine captures its callsite via std::source_location so the
/// BSP conformance checker (docs/CHECKING.md) can attribute violations to
/// the user-level call; the defaulted parameter is free for callers.
/// Blocking put: visible at the target when the call returns.
void put(void* dest, const void* src, std::size_t nbytes, int pe,
         std::source_location loc = std::source_location::current());
/// Blocking get.
void get(void* dest, const void* src, std::size_t nbytes, int pe,
         std::source_location loc = std::source_location::current());
/// Non-blocking put: `src` must stay valid & unmodified until quiet().
/// Data is NOT visible at the target before the initiator's quiet().
void putmem_nbi(void* dest, const void* src, std::size_t nbytes, int pe,
                std::source_location loc = std::source_location::current());
/// Complete all outstanding non-blocking puts from this PE.
void quiet();
/// Number of this PE's staged-but-incomplete nbi puts (testing aid).
std::size_t pending_nbi_puts();

/// Comparison operators for wait_until (shmem_wait_until).
enum class Cmp { eq, ne, gt, ge, lt, le };

/// Block the calling PE (cooperatively yielding) until `*ivar cmp value`
/// holds. `ivar` is a local symmetric address some other PE writes.
void wait_until(std::int64_t* ivar, Cmp cmp, std::int64_t value);

/// ---- Atomics (target-side, any PE) ----------------------------------------
std::int64_t atomic_fetch_add(
    std::int64_t* target, std::int64_t value, int pe,
    std::source_location loc = std::source_location::current());

/// ---- Conformance annotations (docs/CHECKING.md) ---------------------------
/// The conveyor's zero-copy data plane bypasses put()/get() on the
/// intra-node path (raw memcpy through ptr()) and raw-polls publication
/// flags; these annotations tell the conformance checker about those
/// accesses. All three are no-ops (one cached branch) unless an installed
/// RmaObserver asks for conformance events. Addresses are local symmetric
/// addresses, like put()'s `dest`.
/// A raw store of [addr, addr+nbytes) into `pe`'s heap just happened.
void annotate_store(void* addr, std::size_t nbytes, int pe,
                    std::source_location loc = std::source_location::current());
/// A plain local read of the caller's own heap (race-checked).
void annotate_local_read(
    const void* addr, std::size_t nbytes,
    std::source_location loc = std::source_location::current());
/// An acquiring local read: the caller legitimately observed a value
/// another PE published into this range (synchronizes-with the writes).
void annotate_acquire_read(const void* addr, std::size_t nbytes);

/// ---- Collectives ------------------------------------------------------------
/// All collectives must be called by every PE in the same program order.
void barrier_all();  // implies quiet()
void sync_all();     // synchronization only, no quiet
std::int64_t sum_reduce(std::int64_t value);
std::int64_t max_reduce(std::int64_t value);
double sum_reduce(double value);

/// RAII helper for a symmetric array of trivially-copyable T. Safe to
/// destroy after run() returned (or while a fault-injected PE unwinds past
/// world teardown): the free becomes a warned no-op, not a crash.
template <class T>
class SymmArray {
 public:
  explicit SymmArray(std::size_t n) : n_(n), data_(calloc_n<T>(n)) {}
  ~SymmArray() { symm_free(data_); }
  SymmArray(const SymmArray&) = delete;
  SymmArray& operator=(const SymmArray&) = delete;

  [[nodiscard]] T* data() { return data_; }
  [[nodiscard]] const T* data() const { return data_; }
  [[nodiscard]] std::size_t size() const { return n_; }
  T& operator[](std::size_t i) { return data_[i]; }
  const T& operator[](std::size_t i) const { return data_[i]; }

 private:
  std::size_t n_;
  T* data_;
};

}  // namespace ap::shmem
