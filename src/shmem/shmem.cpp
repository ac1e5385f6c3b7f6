#include "shmem/shmem.hpp"

#include "faultinject/faultinject.hpp"
#include "papi/papi.hpp"
#include "runtime/backend.hpp"
#include "runtime/barrier.hpp"
#include "shmem/profiling_interface.hpp"

#include <array>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <stdexcept>

namespace ap::shmem {

namespace {

/// One staged non-blocking put. The source pointer is recorded, not copied:
/// like real OpenSHMEM, the caller must keep `src` stable until quiet().
struct PendingPut {
  int dst_pe;
  std::size_t dst_offset;
  const void* src;
  std::size_t nbytes;
};

/// Shared state for data-carrying collectives (reductions — and any
/// round fault injection may have to complete on a dying PE's behalf). All
/// such collectives are rounds of this one object; OpenSHMEM already
/// requires identical collective call order on every PE, so a single
/// arrival counter suffices. The round's combine callback is stored so
/// that a PE dying mid-round (fault injection) can complete a round it
/// left one arrival short.
///
/// Thread safety (threads backend): every mutation happens under
/// World::coll_mu; `gen` is additionally atomic because the per-PE wait
/// predicate polls it lock-free from worker threads. The release store in
/// complete_round / the acquire load in the predicate order the result
/// bytes. Data-less barrier rounds take the dedicated arrival barrier
/// below instead and never touch this object.
struct CollectiveState {
  int arrived = 0;
  std::atomic<std::uint64_t> gen{0};
  std::vector<unsigned char> contrib;                 // npes * elem_bytes
  std::array<std::vector<unsigned char>, 2> result;   // double-buffered
  std::function<void(CollectiveState&)> combine;      // this round's combine
  std::size_t out_bytes = 0;                          // this round's result size
};

struct World {
  explicit World(const rt::LaunchConfig& cfg)
      : topo(cfg.num_pes, cfg.pes_per_node) {
    heaps.reserve(static_cast<std::size_t>(cfg.num_pes));
    for (int i = 0; i < cfg.num_pes; ++i)
      heaps.emplace_back(cfg.symm_heap_bytes);
    pending.resize(static_cast<std::size_t>(cfg.num_pes));
    alive.assign(static_cast<std::size_t>(cfg.num_pes), 1);
    live = cfg.num_pes;
  }

  Topology topo;
  std::vector<SymmetricHeap> heaps;
  std::vector<std::vector<PendingPut>> pending;  // per source PE
  std::vector<char> alive;  // fault injection can kill PEs mid-run
  int live = 0;
  CollectiveState coll;
  std::mutex coll_mu;  // guards coll, alive, live
  /// Combining-tree barrier for the data-less collective rounds (one
  /// node, the flat counter, up to 4 PEs) — barrier_all/sync_all never
  /// touch CollectiveState unless fault injection is shrinking the fleet.
  rt::TreeBarrier barrier{topo.num_pes()};
};

// Plain global (not thread_local): the worker threads of the threads
// backend must reach the same world. Written on the launching thread
// before rt::launch creates any worker and cleared after they all joined.
World* g_world = nullptr;

World& world() {
  if (g_world == nullptr)
    throw std::logic_error("minishmem: call outside shmem::run()");
  return *g_world;
}

int require_pe() {
  const int pe = rt::my_pe();
  if (pe < 0)
    throw std::logic_error("minishmem: call outside an SPMD region");
  return pe;
}

SymmetricHeap& my_heap() {
  return world().heaps[static_cast<std::size_t>(require_pe())];
}

/// An 8-byte aligned transfer is the substrate's word-sized signalling
/// unit (conveyor publication/ack counters, wait_until ivars). Those
/// become release stores / acquire loads so the plain bytes written
/// before the flag are ordered for the PE that polls it — on x86
/// both compile to the same movs the fiber backend always did.
bool word_aligned(const void* p) {
  return (reinterpret_cast<std::uintptr_t>(p) & 7u) == 0;
}

/// Resolve a local symmetric address to the same offset on `pe`.
unsigned char* translate(const void* local_sym_addr, int pe) {
  World& w = world();
  if (pe < 0 || pe >= w.topo.num_pes())
    throw std::out_of_range("minishmem: target PE out of range");
  SymmetricHeap& mine = w.heaps[static_cast<std::size_t>(require_pe())];
  const std::size_t off = mine.offset_of(local_sym_addr);
  return w.heaps[static_cast<std::size_t>(pe)].base() + off;
}

/// The installed observer iff it subscribed to conformance events — the
/// one cached gate every checker hook below hides behind.
RmaObserver* conformance_observer() {
  RmaObserver* o = rma_observer();
  return (o != nullptr && o->wants_conformance_events()) ? o : nullptr;
}

Callsite to_callsite(const std::source_location& loc) {
  return Callsite{loc.file_name(), static_cast<unsigned>(loc.line())};
}

void apply_pending(int src_pe) {
  World& w = world();
  auto& queue = w.pending[static_cast<std::size_t>(src_pe)];
  RmaObserver* co = conformance_observer();
  for (std::size_t i = 0; i < queue.size(); ++i) {
    const PendingPut& p = queue[i];
    unsigned char* dst =
        w.heaps[static_cast<std::size_t>(p.dst_pe)].base() + p.dst_offset;
    std::memcpy(dst, p.src, p.nbytes);
    if (co != nullptr) co->on_nbi_applied(i);
  }
  queue.clear();
}

/// Complete pending puts in an injected order: apply order[0..delayed_from),
/// yield, apply the rest. Every index is applied at least once, so quiet()
/// keeps its contract; reordering/duplication within one quiet is legal
/// OpenSHMEM weak ordering.
void apply_pending_scheduled(int src_pe, const fi::QuietSchedule& s) {
  World& w = world();
  auto& queue = w.pending[static_cast<std::size_t>(src_pe)];
  RmaObserver* co = conformance_observer();
  auto apply_one = [&w, &queue, co](std::uint32_t idx) {
    const PendingPut& p = queue[idx];
    unsigned char* dst =
        w.heaps[static_cast<std::size_t>(p.dst_pe)].base() + p.dst_offset;
    std::memcpy(dst, p.src, p.nbytes);
    if (co != nullptr) co->on_nbi_applied(idx);
  };
  for (std::size_t i = 0; i < s.delayed_from; ++i) apply_one(s.order[i]);
  if (s.delayed_from < s.order.size()) {
    if (co != nullptr)
      co->on_quiet_suspend(s.delayed_from, s.order.size() - s.delayed_from);
    for (int y = 0; y < s.yields; ++y) rt::yield();
  }
  for (std::size_t i = s.delayed_from; i < s.order.size(); ++i)
    apply_one(s.order[i]);
  queue.clear();
}

/// Finish the current collective round: run the stored combine (if any) and
/// advance the generation, waking every waiter. Caller holds w.coll_mu;
/// the release store on gen publishes the result bytes to the lock-free
/// waiter predicates.
void complete_round(World& w) {
  CollectiveState& c = w.coll;
  const std::uint64_t g = c.gen.load(std::memory_order_relaxed);
  if (c.combine) {
    auto& slot = c.result[g % 2];
    slot.assign(c.out_bytes, 0);
    c.combine(c);
  }
  c.combine = nullptr;
  c.out_bytes = 0;
  c.arrived = 0;
  c.gen.store(g + 1, std::memory_order_release);
}

/// Fault injection: take the calling PE out of the world. Its staged nbi
/// puts are dropped (their source buffers are about to unwind) and a
/// collective round it left one arrival short is completed so survivors
/// do not deadlock.
void mark_current_pe_dead() {
  World& w = world();
  const int me = require_pe();
  std::lock_guard<std::mutex> lk(w.coll_mu);
  if (!w.alive[static_cast<std::size_t>(me)]) return;
  if (RmaObserver* co = conformance_observer()) co->on_pe_dead(me);
  w.alive[static_cast<std::size_t>(me)] = 0;
  --w.live;
  w.pending[static_cast<std::size_t>(me)].clear();
  // The arrival barrier (data-less fast path) tracks the live set too:
  // deactivate completes a round the dead PE was the last holdout of, so
  // survivors parked in barrier_all are released. Kills fire at barrier
  // entry *before* arrive(), so the dead PE never holds a pending ticket.
  w.barrier.deactivate(me);
  CollectiveState& c = w.coll;
  if (c.arrived > 0 && c.arrived >= w.live) complete_round(w);
}

/// Generic round of the shared collective: every PE contributes
/// `elem_bytes` at contrib[me]; the last *live* arriver runs `combine`
/// which must fill result-slot bytes; every PE then copies the result out.
void collective_round(const void* contribution, std::size_t elem_bytes,
                      void* out, std::size_t out_bytes,
                      const std::function<void(CollectiveState&)>& combine) {
  World& w = world();
  CollectiveState& c = w.coll;
  const int me = require_pe();
  const int n = w.topo.num_pes();

  // Superstep boundary: the PE is about to block until every live PE
  // arrives. The profiler stamps its arrival here (before the wait).
  if (RmaObserver* o = rma_observer()) o->on_collective_arrive();

  // Data-less round: take the tree arrival barrier and skip
  // CollectiveState entirely — O(log P) hops in the tree, no mutex. The
  // barrier tracks the live set under fault injection too
  // (mark_current_pe_dead deactivates the dying PE), so this stays the
  // fast path even while PEs are being killed.
  if (elem_bytes == 0 && out == nullptr && !combine) {
    const std::uint64_t ticket = w.barrier.arrive(me);
    rt::wait_until([&w, ticket] { return w.barrier.passed(ticket); });
    return;
  }

  std::unique_lock<std::mutex> lk(w.coll_mu);
  const std::uint64_t g = c.gen.load(std::memory_order_relaxed);
  if (elem_bytes > 0) {
    if (c.contrib.size() < static_cast<std::size_t>(n) * elem_bytes)
      c.contrib.resize(static_cast<std::size_t>(n) * elem_bytes);
    std::memcpy(c.contrib.data() + static_cast<std::size_t>(me) * elem_bytes,
                contribution, elem_bytes);
  }
  // Every arriver deposits the (identical) combine so whichever PE — or a
  // dying PE's mark_current_pe_dead — completes the round can run it.
  c.combine = combine;
  c.out_bytes = out_bytes;
  if (++c.arrived >= w.live) {
    complete_round(w);
    lk.unlock();
  } else {
    lk.unlock();
    rt::wait_until(
        [&c, g] { return c.gen.load(std::memory_order_acquire) != g; });
  }
  if (out != nullptr && out_bytes > 0) {
    // Safe without the lock: gen's release/acquire ordered the result
    // bytes, and the double-buffered slot cannot be overwritten before
    // every PE of round g has arrived at rounds g+1 *and* g+2 — which is
    // after this copy in every PE's program order.
    const auto& slot = c.result[g % 2];
    if (slot.size() < out_bytes)
      throw std::logic_error("minishmem: collective result size mismatch");
    std::memcpy(out, slot.data(), out_bytes);
  }
}

template <class T, class Op>
T reduce_impl(T value, Op op, T identity) {
  World& w = world();
  T out{};
  collective_round(
      &value, sizeof(T), &out, sizeof(T),
      [&w, op, identity](CollectiveState& c) {
        // Dead PEs never arrived this round; their contrib slots hold stale
        // bytes and are skipped.
        T acc = identity;
        const int n = w.topo.num_pes();
        for (int i = 0; i < n; ++i) {
          if (!w.alive[static_cast<std::size_t>(i)]) continue;
          T v;
          std::memcpy(&v, c.contrib.data() + static_cast<std::size_t>(i) *
                                                 sizeof(T),
                      sizeof(T));
          acc = op(acc, v);
        }
        auto& slot = c.result[c.gen % 2];
        slot.resize(sizeof(T));
        std::memcpy(slot.data(), &acc, sizeof(T));
      });
  return out;
}

/// barrier_all entry hook: the configured kill point. Marks the PE dead
/// *before* throwing so destructors running during the unwind (conveyor
/// endpoints, symmetric arrays) see a consistent dead state.
void fi_on_barrier() {
  const int me = require_pe();
  if (fi::on_barrier(me) == fi::BarrierAction::kill) {
    mark_current_pe_dead();
    fi::note_killed(me);
    throw fi::PeKilledError(me, fi::plan().kill_at_barrier);
  }
}

}  // namespace

namespace {

/// Auto-install a fault plan from ACTORPROF_FI_* for the duration of one
/// run() — any existing binary becomes injectable without code changes.
/// A plan installed programmatically (fi::Session in tests) wins.
struct FiEnvGuard {
  bool installed = false;
  FiEnvGuard() {
    if (fi::active()) return;
    const fi::Plan p = fi::Plan::from_env();
    if (!p.enabled()) return;
    fi::install(p);
    installed = true;
  }
  ~FiEnvGuard() {
    if (installed) fi::uninstall();
  }
};

}  // namespace

void run(const rt::LaunchConfig& cfg, const std::function<void()>& body) {
  if (g_world != nullptr)
    throw std::logic_error("minishmem: shmem::run() cannot nest");
  // Resolve here (rt::launch resolves identically from the same inputs) so
  // backend-dependent gating happens before any state is built.
  const rt::Backend backend = rt::resolve_backend(cfg.backend);
  // Fresh virtual counters per SPMD run: the fleet-max clock sync must see
  // launch-relative values, or back-to-back runs in one process would
  // attribute waiting differently (and trace files would stop being
  // byte-reproducible).
  papi::reset_all();
  FiEnvGuard fi_guard;
  if (backend == rt::Backend::threads && fi::active())
    throw std::invalid_argument(
        "minishmem: fault-injection plans are fiber-backend-only — "
        "kill_pe/straggler/quiet schedules rely on the deterministic "
        "single-threaded scheduler; rerun with ACTORPROF_BACKEND=fiber");
  // Worker threads each carry their own virtual cycle counters; the fleet
  // clock sync must take the max across threads, not across one thread's
  // local fleet. See papi::set_shared_clock.
  papi::set_shared_clock(backend == rt::Backend::threads);
  World w(cfg);
  g_world = &w;
  // A fault-injected kill unwinds one PE's body and is contained here; the
  // PE was already marked dead at the kill point, so the launch continues
  // with the survivors instead of aborting the whole SPMD program.
  const std::function<void()> wrapped = fi::active()
      ? std::function<void()>([&body] {
          try {
            body();
          } catch (const fi::PeKilledError&) {
          }
        })
      : body;
  try {
    rt::launch(cfg, wrapped);
  } catch (...) {
    g_world = nullptr;
    papi::set_shared_clock(false);
    throw;
  }
  g_world = nullptr;
  papi::set_shared_clock(false);
}

int my_pe() { return require_pe(); }
int n_pes() { return world().topo.num_pes(); }
const Topology& topology() { return world().topo; }

void* symm_malloc(std::size_t bytes) {
  // allocate() guarantees the block reads as zero without touching virgin
  // arena pages, so a huge symmetric allocation costs address space until
  // it is actually written (docs/PERFORMANCE.md, "Memory at scale").
  return my_heap().allocate(bytes);
}

void symm_free(void* p) {
  if (p == nullptr) return;
  // A symmetric free after the world is torn down (a SymmArray outliving
  // run(), or a fault-injected PE unwinding through teardown races) must
  // not crash: the heaps are gone, so the block is already reclaimed.
  // Warn and no-op instead of dereferencing a dead world.
  if (g_world == nullptr || rt::my_pe() < 0) {
    std::fprintf(stderr,
                 "minishmem: warning: symm_free(%p) outside shmem::run() — "
                 "the symmetric heap no longer exists; ignoring\n",
                 p);
    return;
  }
  my_heap().deallocate(p);
}

void* ptr(void* target, int pe) {
  World& w = world();
  const int me = require_pe();
  if (!w.topo.same_node(me, pe)) return nullptr;
  return translate(target, pe);
}

void put(void* dest, const void* src, std::size_t nbytes, int pe,
         std::source_location loc) {
  if (nbytes == 0) return;
  unsigned char* remote = translate(dest, pe);
  if (nbytes == 8 && word_aligned(remote)) {
    // Word-sized symmetric put = a release store: the signalling idiom
    // (conveyor publication counters, wait_until flags). Publishes every
    // plain byte this PE wrote before it to whoever acquire-reads it.
    std::uint64_t v;
    std::memcpy(&v, src, sizeof v);
    std::atomic_ref<std::uint64_t>(*reinterpret_cast<std::uint64_t*>(remote))
        .store(v, std::memory_order_release);
  } else {
    std::memcpy(remote, src, nbytes);
  }
  if (RmaObserver* o = rma_observer()) {
    o->on_put(pe, nbytes);
    if (o->wants_conformance_events())
      o->on_put_range(pe, my_heap().offset_of(dest), nbytes,
                      to_callsite(loc));
  }
}

void get(void* dest, const void* src, std::size_t nbytes, int pe,
         std::source_location loc) {
  if (nbytes == 0) return;
  const unsigned char* remote = translate(src, pe);
  if (nbytes == 8 && word_aligned(remote)) {
    const std::uint64_t v =
        std::atomic_ref<const std::uint64_t>(
            *reinterpret_cast<const std::uint64_t*>(remote))
            .load(std::memory_order_acquire);
    std::memcpy(dest, &v, sizeof v);
  } else {
    std::memcpy(dest, remote, nbytes);
  }
  if (RmaObserver* o = rma_observer()) {
    o->on_get(pe, nbytes);
    if (o->wants_conformance_events())
      o->on_get_range(pe, my_heap().offset_of(src), nbytes, to_callsite(loc));
  }
}

void putmem_nbi(void* dest, const void* src, std::size_t nbytes, int pe,
                std::source_location loc) {
  if (nbytes == 0) return;
  World& w = world();
  const int me = require_pe();
  SymmetricHeap& mine = w.heaps[static_cast<std::size_t>(me)];
  const std::size_t off = mine.offset_of(dest);
  if (pe < 0 || pe >= w.topo.num_pes())
    throw std::out_of_range("putmem_nbi: target PE out of range");
  w.pending[static_cast<std::size_t>(me)].push_back(
      PendingPut{pe, off, src, nbytes});
  if (RmaObserver* o = rma_observer()) {
    o->on_put_nbi(pe, nbytes);
    if (o->wants_conformance_events())
      o->on_put_nbi_range(pe, off, nbytes, to_callsite(loc));
  }
}

void quiet() {
  const int me = require_pe();
  const std::size_t outstanding =
      world().pending[static_cast<std::size_t>(me)].size();
  if (RmaObserver* co = conformance_observer()) co->on_quiet_begin(outstanding);
  fi::QuietSchedule sched;
  if (fi::active() && fi::plan_quiet(me, outstanding, sched))
    apply_pending_scheduled(me, sched);
  else
    apply_pending(me);
  if (RmaObserver* o = rma_observer()) o->on_quiet(outstanding);
}

std::size_t pending_nbi_puts() {
  return world().pending[static_cast<std::size_t>(require_pe())].size();
}

void wait_until(std::int64_t* ivar, Cmp cmp, std::int64_t value) {
  (void)require_pe();
  // Validate the address once (same check a real symmetric-wait has).
  (void)translate(ivar, require_pe());
  rt::wait_until([ivar, cmp, value] {
    // Acquire: the predicate polls from the owning worker thread while
    // another PE's release-put flips the word; the acquire edge also
    // publishes whatever data the writer stored before the signal.
    const std::int64_t v = std::atomic_ref<const std::int64_t>(*ivar).load(
        std::memory_order_acquire);
    switch (cmp) {
      case Cmp::eq: return v == value;
      case Cmp::ne: return v != value;
      case Cmp::gt: return v > value;
      case Cmp::ge: return v >= value;
      case Cmp::lt: return v < value;
      case Cmp::le: return v <= value;
    }
    return false;
  });
  // The awaited value arrived: the caller now legitimately observes the
  // writes that produced it — an acquire edge for the checker.
  if (RmaObserver* co = conformance_observer())
    co->on_wait_satisfied(my_heap().offset_of(ivar), sizeof(std::int64_t));
}

std::int64_t atomic_fetch_add(std::int64_t* target, std::int64_t value, int pe,
                              std::source_location loc) {
  auto* remote = reinterpret_cast<std::int64_t*>(translate(target, pe));
  if (RmaObserver* o = rma_observer()) {
    o->on_atomic(pe);
    if (o->wants_conformance_events())
      o->on_atomic_range(pe, my_heap().offset_of(target), to_callsite(loc));
  }
  return std::atomic_ref<std::int64_t>(*remote).fetch_add(
      value, std::memory_order_acq_rel);
}

void annotate_store(void* addr, std::size_t nbytes, int pe,
                    std::source_location loc) {
  if (nbytes == 0) return;
  if (RmaObserver* co = conformance_observer())
    co->on_local_store(pe, my_heap().offset_of(addr), nbytes,
                       to_callsite(loc));
}

void annotate_local_read(const void* addr, std::size_t nbytes,
                         std::source_location loc) {
  if (nbytes == 0) return;
  if (RmaObserver* co = conformance_observer())
    co->on_local_read(my_heap().offset_of(addr), nbytes, to_callsite(loc));
}

void annotate_acquire_read(const void* addr, std::size_t nbytes) {
  if (nbytes == 0) return;
  if (RmaObserver* co = conformance_observer())
    co->on_acquire_read(my_heap().offset_of(addr), nbytes);
}

void barrier_all() {
  if (fi::active()) fi_on_barrier();  // kill/straggle point (may throw)
  quiet();  // shmem_barrier_all completes outstanding puts first
  collective_round(nullptr, 0, nullptr, 0, nullptr);
  if (RmaObserver* o = rma_observer()) o->on_barrier();
}

void sync_all() { collective_round(nullptr, 0, nullptr, 0, nullptr); }

std::int64_t sum_reduce(std::int64_t value) {
  return reduce_impl<std::int64_t>(
      value, [](std::int64_t a, std::int64_t b) { return a + b; }, 0);
}

std::int64_t max_reduce(std::int64_t value) {
  return reduce_impl<std::int64_t>(
      value, [](std::int64_t a, std::int64_t b) { return a > b ? a : b; },
      INT64_MIN);
}

double sum_reduce(double value) {
  return reduce_impl<double>(
      value, [](double a, double b) { return a + b; }, 0.0);
}

bool pe_alive(int pe) {
  World& w = world();
  if (pe < 0 || pe >= w.topo.num_pes())
    throw std::out_of_range("pe_alive: PE out of range");
  return w.alive[static_cast<std::size_t>(pe)] != 0;
}

int live_pes() { return world().live; }

}  // namespace ap::shmem
