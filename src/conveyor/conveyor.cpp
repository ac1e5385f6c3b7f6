#include "conveyor/conveyor.hpp"

#include <atomic>
#include <bit>
#include <cassert>
#include <cstring>
#include <mutex>
#include <stdexcept>

#include "faultinject/faultinject.hpp"
#include "papi/papi.hpp"
#include "runtime/scheduler.hpp"

namespace ap::convey {

namespace {
// Plain global (was thread_local): observers are installed on the
// launching thread before a launch creates worker threads (threads
// backend), so thread creation orders the pointer for every worker.
TransferObserver* g_observer = nullptr;

void notify(SendType t, std::size_t bytes, int src, int dst,
            std::uint64_t first_flow) {
  if (g_observer != nullptr)
    g_observer->on_transfer(t, bytes, src, dst, first_flow);
}

void notify_misuse(const char* what) {
  if (g_observer != nullptr) g_observer->on_conveyor_misuse(what);
}
}  // namespace

void set_transfer_observer(TransferObserver* obs) { g_observer = obs; }
TransferObserver* transfer_observer() { return g_observer; }

// ---------------------------------------------------------------------------
// Wire format: every item travels as a fixed-size record
//   [int32 final_dst][int32 orig_src][payload item_bytes]
// so intermediate hops can re-aggregate without understanding the payload.
// With Options::carry_flow_ids a uint64 flow id rides between the header
// and the payload:
//   [int32 final_dst][int32 orig_src][uint64 flow][payload item_bytes]
// Delivered records keep the full wire layout (final_dst included) so a
// contiguous run of records for this PE moves from the landing buffer into
// the receive queue with a single memcpy; drain() skips the header.
// The copy budget per record is documented in docs/PERFORMANCE.md.
// ---------------------------------------------------------------------------

namespace {
constexpr std::size_t kRecordHeader = 2 * sizeof(std::int32_t);

/// Endpoint bookkeeping mode switch: up to this many PEs every per-hop /
/// per-source structure is a dense array indexed by PE id (one array load
/// on the hot paths — the layout every micro-bench baseline was recorded
/// against). Above it the endpoint goes *compact*: per-hop state is
/// created on first send toward that hop and per-source state when the
/// source's first publication rings, so a P-PE fleet costs
/// O(P * touched-destinations) instead of O(P^2) (docs/PERFORMANCE.md,
/// "Memory at scale").
constexpr int kCompactThreshold = 64;

/// One cache line of doorbell words (see Conveyor::Group::bells).
struct alignas(64) BellLine {
  std::uint64_t w[8];
};

std::int32_t load_dst(const std::byte* record) {
  std::int32_t d = 0;
  std::memcpy(&d, record, sizeof d);
  return d;
}

// ConveyorStats fields are single-writer: only the owning PE bumps its
// endpoint's counters, and under the threads backend a PE's fiber is only
// ever resumed on its owning worker. Increments stay plain on purpose —
// even a relaxed atomic_ref load+store pair acts as a compiler
// optimization barrier on the per-item hot paths and costs double-digit
// percent on the micro_conveyor drain gate. The price is a
// quiescence contract on readers: total_stats() may only be called when
// the caller is barrier-separated from every remote PE's conveyor
// activity (e.g. after shmem::barrier_all(), or after advance() has
// returned false on all PEs and a barrier followed). Mid-run progress
// probes must use the owning endpoint's stats() or the group's atomic
// delivered_total() instead (the selector pump does exactly that).
void bump(std::uint64_t& counter, std::uint64_t delta = 1) {
  counter += delta;
}

/// Minimal open-addressed int32 -> int32 map for the compact mode's
/// hop-id -> hops[] slot lookup. Touched-hop counts under the mesh routes
/// are O(sqrt P), so the table stays a few cache lines; linear probing
/// with a power-of-two size keeps the hot-path probe branch-light.
class FlatMap32 {
 public:
  [[nodiscard]] std::int32_t get(std::int32_t key) const {
    if (slots_.empty()) return -1;
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = hash(key) & mask;; i = (i + 1) & mask) {
      const Slot& s = slots_[i];
      if (s.key == kEmpty) return -1;
      if (s.key == key) return s.value;
    }
  }

  void put(std::int32_t key, std::int32_t value) {
    if (slots_.empty()) slots_.assign(16, Slot{});
    if ((size_ + 1) * 4 >= slots_.size() * 3) grow();
    insert(key, value);
  }

 private:
  static constexpr std::int32_t kEmpty = -1;
  struct Slot {
    std::int32_t key = kEmpty;
    std::int32_t value = 0;
  };

  static std::size_t hash(std::int32_t key) {
    auto x = static_cast<std::uint32_t>(key);
    x ^= x >> 16;
    x *= 0x45d9f3bu;
    x ^= x >> 16;
    return x;
  }

  void insert(std::int32_t key, std::int32_t value) {
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = hash(key) & mask;; i = (i + 1) & mask) {
      Slot& s = slots_[i];
      if (s.key == kEmpty) {
        s.key = key;
        s.value = value;
        ++size_;
        return;
      }
      if (s.key == key) {
        s.value = value;
        return;
      }
    }
  }

  void grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.size() * 2, Slot{});
    size_ = 0;
    for (const Slot& s : old)
      if (s.key != kEmpty) insert(s.key, s.value);
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
};
}  // namespace

/// Flat byte queue with a consumed prefix. Used for outgoing aggregation
/// buffers (one per next-hop PE) and for the receive queue. Storage is
/// reserved once (first use) and then recycled: append() writes in place,
/// compact() reclaims the consumed prefix without freeing. User pushes are
/// back-pressured at one buffer's worth; forwarded items may overflow
/// (they must never be dropped or the route deadlocks) and only that rare
/// overflow can grow the storage.
struct OutBuf {
  std::vector<std::byte> bytes;  // storage; size() == capacity in use
  std::size_t head = 0;          // start of unconsumed data
  std::size_t tail = 0;          // end of valid data

  [[nodiscard]] std::size_t pending() const { return tail - head; }

  /// Reclaim consumed space: cheap reset when fully drained, memmove the
  /// live suffix down once the dead prefix exceeds half the storage (so
  /// forwarded-overflow buffers on long routes stop growing monotonically).
  void compact() {
    if (head == tail) {
      head = tail = 0;
    } else if (head >= bytes.size() / 2) {
      std::memmove(bytes.data(), bytes.data() + head, tail - head);
      tail -= head;
      head = 0;
    }
  }

  /// Reserve a writable slot of `n` bytes at the tail and return it.
  /// `capacity_hint` sizes the first allocation; afterwards the storage is
  /// stable unless forwarded overflow outgrows it.
  std::byte* append(std::size_t n, std::size_t capacity_hint) {
    if (tail + n > bytes.size()) {
      compact();
      if (tail + n > bytes.size()) {
        std::size_t want = bytes.size() * 2;
        if (want < tail + n) want = tail + n;
        if (want < capacity_hint) want = capacity_hint;
        bytes.resize(want);
      }
    }
    std::byte* slot = bytes.data() + tail;
    tail += n;
    return slot;
  }
};

struct Conveyor::Group {
  Options opts;
  shmem::Topology topo;
  Router router;
  std::size_t flow_bytes;   // 0, or sizeof(uint64) when carrying flow ids
  std::size_t record_bytes;
  std::size_t records_per_buffer;
  std::size_t slot_stride;  // 8-byte length header + payload capacity

  // Shared progress counters, updated from every PE's worker under the
  // threads backend. injected is fed in per-advance batches (see
  // Endpoint::injected_unpublished); delivered in per-run batches inside
  // deliver_incoming() — neither takes a shared RMW per item.
  std::atomic<std::uint64_t> injected{0};
  std::atomic<std::uint64_t> delivered{0};
  /// Items dropped because a fault-injected PE died holding (or being the
  /// destination of) them. Counted toward termination: a conveyor is
  /// complete when injected == delivered + lost. (Fault injection is
  /// fiber-backend-only, so these adds are never contended.)
  std::atomic<std::uint64_t> lost{0};
  std::atomic<int> done_count{0};
  /// Doorbells: receiver r's bit s is set by the source in slot s after
  /// each publication toward r, so r's delivery pass visits only the
  /// sources that published since their last visit. A slot is the
  /// source's PE id in dense mode and its announcement index in compact
  /// mode. Simulator bookkeeping in plain process memory, not a modelled
  /// SHMEM object: a ring raises no RMA event and no sim-PAPI charge, and
  /// the checker's edge stays the acquire load of published_from. Each
  /// receiver's words start on their own cache line; the bitmap is the one
  /// receive-side structure sized by P (P^2/8 bytes per conveyor).
  std::size_t bell_words;   // words per receiver: one bit per source slot
  std::size_t bell_lines;   // cache lines per receiver
  std::vector<BellLine> bells;
  std::vector<char> done_flags;      // per-PE done (for dead-PE termination)
  std::vector<Endpoint*> endpoints;  // registered per PE (for stats)
  /// Serializes endpoint retirement against total_stats(): a destructor
  /// folds its stats into `retired` and clears its endpoints[] slot under
  /// this mutex, so a concurrent total_stats() never reads a freed
  /// endpoint and never loses a retired PE's counts.
  std::mutex retire_mu;
  ConveyorStats retired;

  Group(const Options& o, const shmem::Topology& t)
      : opts(o),
        topo(t),
        router(t, o.route),
        flow_bytes(o.carry_flow_ids ? sizeof(std::uint64_t) : 0),
        record_bytes(kRecordHeader + flow_bytes + o.item_bytes),
        records_per_buffer(o.buffer_bytes / record_bytes),
        slot_stride(sizeof(std::int64_t) +
                    records_per_buffer * record_bytes),
        bell_words((static_cast<std::size_t>(t.num_pes()) + 63) / 64),
        bell_lines((bell_words + 7) / 8) {
    if (o.item_bytes == 0)
      throw std::invalid_argument("Conveyor: item_bytes must be > 0");
    if (o.slots < 1)
      throw std::invalid_argument("Conveyor: slots must be >= 1");
    if (records_per_buffer == 0)
      throw std::invalid_argument(
          "Conveyor: buffer_bytes too small for even one record");
    endpoints.assign(static_cast<std::size_t>(t.num_pes()), nullptr);
    done_flags.assign(static_cast<std::size_t>(t.num_pes()), 0);
    bells.assign(static_cast<std::size_t>(t.num_pes()) * bell_lines,
                 BellLine{});
  }

  [[nodiscard]] std::uint64_t* bells_of(int pe) {
    return bells[static_cast<std::size_t>(pe) * bell_lines].w;
  }

  /// Tell `receiver` that the source in `slot` published. The release pairs
  /// with the receiver's acquire exchange of the word, which then sees the
  /// publication the ring follows.
  void ring(int receiver, int slot) {
    const auto s = static_cast<std::size_t>(slot);
    std::atomic_ref<std::uint64_t>(bells_of(receiver)[s / 64])
        .fetch_or(std::uint64_t{1} << (s % 64), std::memory_order_release);
  }

  [[nodiscard]] std::size_t payload_capacity() const {
    return records_per_buffer * record_bytes;
  }

  /// First-allocation size of an out/recv buffer: two full buffers, so a
  /// freshly flushed buffer (head == capacity) still leaves a whole
  /// buffer's worth of tail room before compact() has anything to do.
  [[nodiscard]] std::size_t outbuf_capacity() const {
    return 2 * payload_capacity();
  }
};

namespace {
/// Per-next-hop state, created on first send toward that hop (compact
/// mode) or eagerly for every PE (dense mode, small fleets). The out
/// buffer's storage and the nbi staging block are both first-touch lazy
/// either way: a hop that is never flushed inter-node never allocates its
/// staging, so per-endpoint memory follows the hops actually used.
struct HopState {
  int hop = -1;
  OutBuf out;
  std::int64_t seq_flushed = 0;    // buffers flushed toward this hop
  std::int64_t seq_published = 0;  // buffers published toward this hop
  /// This endpoint's slot in the hop's doorbell: its PE id in dense mode;
  /// in compact mode its announcement index, -1 until it has announced
  /// itself to the hop (see the announcement protocol in try_flush).
  int bell_slot = -1;
  /// nbi source-stability block, slots * slot_stride bytes, sized on the
  /// first inter-node flush and stable afterwards (pending putmem_nbi
  /// reads it until quiet; vector moves keep the heap block alive).
  std::vector<std::byte> staging;
};

/// Per-source delivery cursor, indexed by doorbell slot: PE order in dense
/// mode; announcement order in compact mode, where the source (-1 until
/// then) is resolved when its slot first rings.
struct SrcState {
  int src = -1;
  std::int64_t consumed = 0;  // buffers consumed from this source
};
}  // namespace

struct Conveyor::Endpoint {
  int pe = -1;
  /// True above kCompactThreshold PEs: per-hop/per-source state is lazy
  /// and keyed, not dense (see kCompactThreshold).
  bool compact = false;

  // --- symmetric-heap communication state --------------------------------
  /// Landing rings: slots * n_pes buffers, indexed [src][slot]. Dense in
  /// *address space*; the symmetric heap's demand-zero arena keeps slots
  /// nobody writes from ever becoming resident.
  std::byte* ring = nullptr;
  /// published_from[s]: number of buffers PE s has made visible to me.
  std::int64_t* published_from = nullptr;
  /// acked_by[r]: number of my buffers PE r has consumed (r writes it here).
  std::int64_t* acked_by = nullptr;
  /// Compact mode announcement ring (MPSC, wait-free): a sender's first
  /// transfer toward me reserves a slot via atomic_fetch_add(ann_head) and
  /// release-stores (its PE id + 1) into ann_slots[slot]; that slot is its
  /// doorbell bit here, so every ring is preceded by its announcement.
  std::int64_t* ann_head = nullptr;
  std::int64_t* ann_slots = nullptr;

  // --- plain per-PE state --------------------------------------------------
  /// Dense mode: hops[h] is next-hop h and hop_of_dense the routing table,
  /// index-by-PE arrays. Compact mode: hops holds touched next-hops in
  /// first-touch order (hop_slot maps hop id -> index) and hop_of_dense
  /// stays empty. srcs is indexed by doorbell slot in both modes; in
  /// compact mode it grows as slots resolve.
  std::vector<HopState> hops;
  std::vector<std::int32_t> hop_of_dense;
  FlatMap32 hop_slot;
  std::vector<SrcState> srcs;
  /// The doorbell words taken by the current delivery pass.
  std::vector<std::uint64_t> rung;

  OutBuf recv;       // delivered wire records
  OutBuf drain_buf;  // batch snapshot being drained
  /// Pushes not yet added to Group::injected. push() only bumps this plain
  /// per-PE counter (no shared-cacheline RMW per item); advance() publishes
  /// the batch into the group counter before anything else moves — in
  /// particular before this PE can declare done — so the termination
  /// equality below never reads a short injected count.
  std::uint64_t injected_unpublished = 0;
  bool draining = false;
  bool done_reported = false;
  /// Cached TransferObserver::wants_conformance_events() — refreshed at
  /// construction and once per advance(), so the checker-off data plane
  /// pays one bool test, not a virtual call, per annotated site.
  bool check_events = false;
  ConveyorStats stats;

  /// Next hop toward `dst`: one array load in dense mode; the router's
  /// topology math in compact mode (no O(P) table per endpoint).
  [[nodiscard]] int hop_for(const Group& g, int dst) const {
    return compact ? g.router.next_hop(pe, dst)
                   : hop_of_dense[static_cast<std::size_t>(dst)];
  }

  /// State for `hop`, or nullptr when this endpoint never sent toward it.
  [[nodiscard]] HopState* find_hop(int hop) {
    if (!compact) return &hops[static_cast<std::size_t>(hop)];
    const std::int32_t idx = hop_slot.get(hop);
    return idx < 0 ? nullptr : &hops[static_cast<std::size_t>(idx)];
  }

  /// State for `hop`, created on first touch in compact mode. May grow
  /// `hops` — callers must not hold HopState references across a call.
  [[nodiscard]] HopState& hop_state(int hop) {
    if (!compact) return hops[static_cast<std::size_t>(hop)];
    const std::int32_t idx = hop_slot.get(hop);
    if (idx >= 0) return hops[static_cast<std::size_t>(idx)];
    hops.emplace_back();
    hops.back().hop = hop;
    hop_slot.put(hop, static_cast<std::int32_t>(hops.size() - 1));
    return hops.back();
  }

  /// Exchange each non-zero word of my doorbell for 0, into `rung`. False
  /// when no source rang.
  bool take_rung(Group& g) {
    std::uint64_t* bell = g.bells_of(pe);
    std::uint64_t any = 0;
    for (std::size_t w = 0; w < rung.size(); ++w) {
      std::atomic_ref<std::uint64_t> word(bell[w]);
      rung[w] = word.load(std::memory_order_relaxed) == 0
                    ? 0
                    : word.exchange(0, std::memory_order_acquire);
      any |= rung[w];
    }
    return any != 0;
  }

  /// `fn(slot)` for each rung slot, in ascending slot order.
  template <class Fn>
  void for_each_rung(Fn&& fn) const {
    for (std::size_t w = 0; w < rung.size(); ++w)
      for (std::uint64_t bits = rung[w]; bits != 0; bits &= bits - 1)
        fn(w * 64 + static_cast<std::size_t>(std::countr_zero(bits)));
  }

  /// Compact mode: resolve the source of each rung slot seen for the first
  /// time from the announcement ring. A delivery pass does this before it
  /// delivers anything, as the announcement scan it replaces did.
  void resolve_rung(bool annotate) {
    for_each_rung([&](std::size_t slot) {
      if (slot >= srcs.size()) srcs.resize(slot + 1);
      SrcState& ss = srcs[slot];
      if (ss.src >= 0) return;
      const std::int64_t v = std::atomic_ref<std::int64_t>(ann_slots[slot])
                                 .load(std::memory_order_acquire);
      assert(v != 0 && "a doorbell rang before its announcement");
      if (annotate)
        shmem::annotate_acquire_read(ann_slots + slot, sizeof(std::int64_t));
      ss.src = static_cast<int>(v - 1);
    });
  }
};

std::shared_ptr<Conveyor> Conveyor::create(const Options& opts) {
  const shmem::Topology& topo = shmem::topology();
  auto group = rt::collective<Group>(
      [&] { return std::make_shared<Group>(opts, topo); });
  if (group->opts.item_bytes != opts.item_bytes ||
      group->opts.buffer_bytes != opts.buffer_bytes ||
      group->opts.slots != opts.slots ||
      group->opts.carry_flow_ids != opts.carry_flow_ids)
    throw std::logic_error("Conveyor::create: PEs disagree on options");
  return std::shared_ptr<Conveyor>(new Conveyor(group, shmem::my_pe()));
}

Conveyor::Conveyor(std::shared_ptr<Group> group, int pe)
    : group_(std::move(group)), self_(std::make_unique<Endpoint>()) {
  Group& g = *group_;
  const int n = g.topo.num_pes();
  Endpoint& e = *self_;
  e.pe = pe;
  e.compact = n > kCompactThreshold;
  e.check_events =
      g_observer != nullptr && g_observer->wants_conformance_events();

  // Symmetric structures are allocated dense over P for addressability
  // (remote offsets must be computable without coordination) but cost
  // virtual memory only: the heap's demand-zero arena makes untouched
  // ring slots and counters free. Every PE takes the same branch (same n),
  // so the allocation sequence stays symmetric.
  const std::size_t ring_bytes =
      static_cast<std::size_t>(n) * static_cast<std::size_t>(g.opts.slots) *
      g.slot_stride;
  e.ring = static_cast<std::byte*>(shmem::symm_malloc(ring_bytes));
  e.published_from = shmem::calloc_n<std::int64_t>(static_cast<std::size_t>(n));
  e.acked_by = shmem::calloc_n<std::int64_t>(static_cast<std::size_t>(n));
  if (e.compact) {
    e.ann_head = shmem::calloc_n<std::int64_t>(1);
    e.ann_slots = shmem::calloc_n<std::int64_t>(static_cast<std::size_t>(n));
  } else {
    // Dense heap-side bookkeeping for small fleets: identical hot-path
    // cost to the recorded micro-bench baselines.
    e.hop_of_dense = g.router.table_for(pe);
    e.hops.resize(static_cast<std::size_t>(n));
    e.srcs.resize(static_cast<std::size_t>(n));
    for (int h = 0; h < n; ++h) {
      e.hops[static_cast<std::size_t>(h)].hop = h;
      e.hops[static_cast<std::size_t>(h)].bell_slot = pe;
      e.srcs[static_cast<std::size_t>(h)].src = h;
    }
  }
  e.rung.assign(g.bell_words, 0);

  g.endpoints[static_cast<std::size_t>(pe)] = &e;
  // Everyone must see everyone's rings allocated before any transfer. This
  // barrier can throw fi::PeKilledError (a kill placed at conveyor setup);
  // the destructor won't run for a throwing constructor, so deregister and
  // free here or survivors' total_stats() would read the freed endpoint.
  try {
    shmem::barrier_all();
  } catch (...) {
    g.endpoints[static_cast<std::size_t>(pe)] = nullptr;
    shmem::symm_free(e.ring);
    shmem::symm_free(e.published_from);
    shmem::symm_free(e.acked_by);
    if (e.ann_head != nullptr) shmem::symm_free(e.ann_head);
    if (e.ann_slots != nullptr) shmem::symm_free(e.ann_slots);
    throw;
  }
}

namespace {
std::mutex g_lifetime_mu;
ConveyorStats g_lifetime{};

/// Fold `s` into `t`. Sources may belong to a PE running on another
/// worker (total_stats); the plain reads are safe only under the
/// quiescence contract documented at bump() above — callers must be
/// barrier-separated from the remote writers.
void accumulate(ConveyorStats& t, const ConveyorStats& s) {
  t.pushed += s.pushed;
  t.pulled += s.pulled;
  t.forwarded += s.forwarded;
  t.local_sends += s.local_sends;
  t.nonblock_sends += s.nonblock_sends;
  t.progress_calls += s.progress_calls;
  t.local_send_bytes += s.local_send_bytes;
  t.nonblock_send_bytes += s.nonblock_send_bytes;
  t.memcpys += s.memcpys;
  t.drains += s.drains;
  t.deliver_visits += s.deliver_visits;
}
}  // namespace

ConveyorStats lifetime_totals() {
  std::lock_guard<std::mutex> lk(g_lifetime_mu);
  return g_lifetime;
}
void reset_lifetime_totals() {
  std::lock_guard<std::mutex> lk(g_lifetime_mu);
  g_lifetime = ConveyorStats{};
}

Conveyor::~Conveyor() {
  Endpoint& e = *self_;
  {
    std::lock_guard<std::mutex> lk(g_lifetime_mu);
    accumulate(g_lifetime, e.stats);
  }
  // Pushes never published through an advance() must still reach the group
  // counter: a killed PE's unflushed records are counted as *lost* below,
  // and the survivors' termination equality (injected == delivered + lost)
  // would otherwise never balance.
  if (group_ && e.injected_unpublished != 0) {
    group_->injected.fetch_add(e.injected_unpublished,
                               std::memory_order_release);
    e.injected_unpublished = 0;
  }
  // A killed PE's endpoint is destroyed while its body unwinds (the PE is
  // already marked dead at that point). Everything it still holds — queued,
  // staged, or landed-but-unconsumed records — will never be delivered;
  // account it as lost so the survivors' advance() loops can terminate.
  if (group_ && rt::in_spmd_region() && fi::active() && e.pe >= 0 &&
      !shmem::pe_alive(e.pe))
    account_dead_endpoint();
  if (group_ && e.pe >= 0 &&
      static_cast<std::size_t>(e.pe) < group_->endpoints.size()) {
    std::lock_guard<std::mutex> lk(group_->retire_mu);
    accumulate(group_->retired, e.stats);
    group_->endpoints[static_cast<std::size_t>(e.pe)] = nullptr;
  }
  // Frees must run on the owning PE's fiber while the world is alive; the
  // SPMD structure of HClib-Actor programs guarantees that.
  if (rt::in_spmd_region()) {
    shmem::symm_free(e.ring);
    shmem::symm_free(e.published_from);
    shmem::symm_free(e.acked_by);
    if (e.ann_head != nullptr) shmem::symm_free(e.ann_head);
    if (e.ann_slots != nullptr) shmem::symm_free(e.ann_slots);
  }
}

void Conveyor::account_dead_endpoint() {
  Group& g = *group_;
  Endpoint& e = *self_;
  std::size_t bytes = e.recv.pending() + e.drain_buf.pending();
  for (const HopState& hs : e.hops) bytes += hs.out.pending();
  std::uint64_t lost = bytes / g.record_bytes;
  // Flushed into staging but never published: the staged nbi puts were
  // dropped when the PE was marked dead, so these records are gone.
  for (const HopState& hs : e.hops) {
    for (std::int64_t seq = hs.seq_published; seq < hs.seq_flushed; ++seq) {
      // flushed > published implies at least one inter-node flush, which
      // sized the staging block.
      const std::byte* stage =
          hs.staging.data() +
          static_cast<std::size_t>(seq % g.opts.slots) * g.slot_stride;
      std::int64_t len = 0;
      std::memcpy(&len, stage, sizeof len);
      lost += static_cast<std::uint64_t>(len) / g.record_bytes;
    }
  }
  // Landed in this PE's ring (published by senders) but never consumed.
  const auto count_landed = [&](int src, std::int64_t consumed) {
    const auto s = static_cast<std::size_t>(src);
    const std::int64_t pub =
        std::atomic_ref<std::int64_t>(e.published_from[s])
            .load(std::memory_order_acquire);
    for (std::int64_t seq = consumed; seq < pub; ++seq) {
      const std::byte* base =
          e.ring + (s * static_cast<std::size_t>(g.opts.slots) +
                    static_cast<std::size_t>(seq % g.opts.slots)) *
                       g.slot_stride;
      std::int64_t len = 0;
      std::memcpy(&len, base, sizeof len);
      lost += static_cast<std::uint64_t>(len) / g.record_bytes;
    }
  };
  // A source that never rang published nothing here, so resolving the
  // slots rung since the last pass covers every source with landed
  // buffers.
  if (e.take_rung(g) && e.compact) e.resolve_rung(/*annotate=*/false);
  for (const SrcState& ss : e.srcs)
    if (ss.src >= 0) count_landed(ss.src, ss.consumed);
  g.lost.fetch_add(lost, std::memory_order_relaxed);
}

const ConveyorStats& Conveyor::stats() const { return self_->stats; }

ConveyorStats Conveyor::total_stats() const {
  std::lock_guard<std::mutex> lk(group_->retire_mu);
  ConveyorStats t = group_->retired;
  for (const Endpoint* e : group_->endpoints) {
    if (e == nullptr) continue;
    accumulate(t, e->stats);
  }
  return t;
}

std::uint64_t Conveyor::delivered_total() const {
  return group_->delivered.load(std::memory_order_relaxed);
}

// --------------------------------------------------------------------- push

bool Conveyor::push(const void* item, int dst_pe, std::uint64_t flow_id) {
  Group& g = *group_;
  Endpoint& e = *self_;
  if (e.done_reported) {
    if (e.check_events)
      notify_misuse("conveyor: push() after done was declared");
    throw std::logic_error("Conveyor::push after done was declared");
  }
  if (dst_pe < 0 || dst_pe >= g.topo.num_pes())
    throw std::out_of_range("Conveyor::push: destination PE out of range");

  const int hop = e.hop_for(g, dst_pe);
  OutBuf& ob = e.hop_state(hop).out;

  // Back-pressure: a user push never flushes — appending is MAIN-region
  // work (paper §III-B); all buffer movement happens inside advance(),
  // which the runtime attributes to COMM.
  if (ob.pending() >= g.payload_capacity()) return false;

  // Write the record in place: header + flow + payload land directly in
  // the preallocated aggregation buffer (no scratch build, no heap).
  std::byte* rec = ob.append(g.record_bytes, g.outbuf_capacity());
  const std::int32_t dst32 = dst_pe;
  const std::int32_t src32 = e.pe;
  std::memcpy(rec, &dst32, sizeof dst32);
  std::memcpy(rec + sizeof dst32, &src32, sizeof src32);
  if (g.flow_bytes != 0)
    std::memcpy(rec + kRecordHeader, &flow_id, sizeof flow_id);
  std::memcpy(rec + kRecordHeader + g.flow_bytes, item, g.opts.item_bytes);
  bump(e.stats.memcpys);
  bump(e.stats.pushed);
  e.injected_unpublished++;
  return true;
}

// --------------------------------------------------------------------- flush

bool Conveyor::try_flush(int next_hop) {
  Group& g = *group_;
  Endpoint& e = *self_;
  HopState* hsp = e.find_hop(next_hop);
  if (hsp == nullptr) return true;  // never sent toward this hop
  HopState& hs = *hsp;
  OutBuf& ob = hs.out;
  ob.compact();
  if (ob.pending() == 0) return true;

  // A dead next hop consumes nothing ever again: drop everything queued
  // toward it and account the records as lost (checked before the ring
  // availability test — dead receivers stop acking too).
  if (fi::active() && !shmem::pe_alive(next_hop)) {
    g.lost.fetch_add(ob.pending() / g.record_bytes,
                     std::memory_order_relaxed);
    ob.head = ob.tail;
    ob.compact();
    return true;
  }

  const auto hop_idx = static_cast<std::size_t>(next_hop);
  // The ack counter is written by the receiver via shmem::put; polling it
  // (an acquire load — the receiver's put is a release store) is what lets
  // us reuse the acked ring slots: the receiver read the slot before it
  // released the ack, so our next write cannot race its read.
  if (e.check_events)
    shmem::annotate_acquire_read(e.acked_by + hop_idx, sizeof(std::int64_t));
  const auto acked = [&] {
    return std::atomic_ref<std::int64_t>(e.acked_by[hop_idx])
        .load(std::memory_order_acquire);
  };
  // Free ring slot available? Double buffering: with `slots` buffers per
  // pair, the (slots+1)-th flush needs the oldest one acked.
  if (hs.seq_flushed - acked() >= static_cast<std::int64_t>(g.opts.slots)) {
    // Unpublished nbi buffers can never be acked: run the progress
    // protocol (quiet + signal) and re-check — this is exactly the
    // "second buffer full triggers shmem_quiet" behaviour from the paper.
    if (hs.seq_published < hs.seq_flushed) {
      progress_pending();
      if (hs.seq_flushed - acked() >= static_cast<std::int64_t>(g.opts.slots))
        return false;
    } else {
      return false;  // receiver has not consumed yet; retry later
    }
  }

  // Compact mode: the first transfer toward this hop announces this
  // endpoint in the hop's announcement ring *before* anything is
  // published; the reserved index is its doorbell slot there, and the
  // receiver resolves a slot from the ring when it first rings.
  if (e.compact && hs.bell_slot < 0) {
    const std::int64_t idx = shmem::atomic_fetch_add(e.ann_head, 1, next_hop);
    assert(idx >= 0 && idx < g.topo.num_pes());
    const std::int64_t tagged = e.pe + 1;
    shmem::put(static_cast<void*>(e.ann_slots + idx), &tagged, sizeof tagged,
               next_hop);
    hs.bell_slot = static_cast<int>(idx);
  }

  const std::size_t chunk = std::min(ob.pending(), g.payload_capacity());
  // Never split a record across buffers.
  assert(chunk % g.record_bytes == 0);

  // The flow id of the first aggregated record anchors this physical
  // transfer to one logical send in the trace (0 when not carried).
  std::uint64_t first_flow = 0;
  if (g.flow_bytes != 0)
    std::memcpy(&first_flow, ob.bytes.data() + ob.head + kRecordHeader,
                sizeof first_flow);

  const std::int64_t seq = hs.seq_flushed;  // 0-based buffer index
  const std::size_t slot =
      static_cast<std::size_t>(seq % g.opts.slots);
  // The landing slot inside the *receiver's* ring for source `e.pe`:
  const std::size_t slot_off =
      (static_cast<std::size_t>(e.pe) * static_cast<std::size_t>(g.opts.slots) +
       slot) *
      g.slot_stride;

  const bool intra_node = g.topo.same_node(e.pe, next_hop);
  if (intra_node) {
    // local_send: direct memcpy through shmem_ptr, immediately published.
    auto* dst = static_cast<std::byte*>(
        shmem::ptr(static_cast<void*>(e.ring + slot_off), next_hop));
    assert(dst != nullptr);
    const std::int64_t len = static_cast<std::int64_t>(chunk);
    std::memcpy(dst, &len, sizeof len);
    std::memcpy(dst + sizeof len, ob.bytes.data() + ob.head, chunk);
    bump(e.stats.memcpys);
    papi::account_buffer_copy(chunk);
    papi::account_local_flush(chunk);
    if (e.check_events)
      shmem::annotate_store(static_cast<void*>(e.ring + slot_off),
                            sizeof len + chunk, next_hop);
    // Publish instantly (shared memory): bump receiver's published_from[me].
    // Release store: orders the slot memcpy above before the flag for the
    // receiver's acquire poll in deliver_incoming().
    auto* pub = static_cast<std::int64_t*>(shmem::ptr(
        static_cast<void*>(e.published_from + e.pe), next_hop));
    std::atomic_ref<std::int64_t>(*pub).store(seq + 1,
                                              std::memory_order_release);
    if (e.check_events)
      shmem::annotate_store(static_cast<void*>(e.published_from + e.pe),
                            sizeof(std::int64_t), next_hop);
    g.ring(next_hop, hs.bell_slot);
    hs.seq_flushed = seq + 1;
    hs.seq_published = seq + 1;
    bump(e.stats.local_sends);
    bump(e.stats.local_send_bytes, chunk);
    notify(SendType::local_send, chunk, e.pe, next_hop, first_flow);
  } else {
    // nonblock_send: stage (nbi source must stay stable until quiet), then
    // shmem_putmem_nbi into the receiver's ring. NOT visible until the
    // nonblock_progress below publishes it. The staging block is sized on
    // the hop's first inter-node flush (first touch) and recycled after —
    // steady state allocates nothing.
    if (hs.staging.empty())
      hs.staging.resize(static_cast<std::size_t>(g.opts.slots) *
                        g.slot_stride);
    std::byte* stage = hs.staging.data() + slot * g.slot_stride;
    const std::int64_t len = static_cast<std::int64_t>(chunk);
    std::memcpy(stage, &len, sizeof len);
    std::memcpy(stage + sizeof len, ob.bytes.data() + ob.head, chunk);
    bump(e.stats.memcpys);
    papi::account_buffer_copy(chunk);
    shmem::putmem_nbi(static_cast<void*>(e.ring + slot_off), stage,
                      sizeof len + chunk, next_hop);
    papi::account_remote_put(chunk);
    hs.seq_flushed = seq + 1;
    bump(e.stats.nonblock_sends);
    bump(e.stats.nonblock_send_bytes, chunk);
    notify(SendType::nonblock_send, chunk, e.pe, next_hop, first_flow);
  }

  ob.head += chunk;
  ob.compact();
  return true;
}

void Conveyor::flush_all() {
  Endpoint& e = *self_;
  // Flush as much as slot availability allows toward each touched hop.
  for (std::size_t i = 0; i < e.hops.size(); ++i) {
    const int hop = e.hops[i].hop;
    while (e.hops[i].out.pending() > 0) {
      if (!try_flush(hop)) break;
    }
  }
}

void Conveyor::progress_pending() {
  Group& g = *group_;
  Endpoint& e = *self_;
  bool any = false;
  for (const HopState& hs : e.hops) {
    if (hs.seq_published < hs.seq_flushed) {
      any = true;
      break;
    }
  }
  if (!any) return;

  // nonblock_progress: one quiet completes *all* outstanding puts of this
  // PE (that is what the OpenSHMEM semantics mandate — see the paper's
  // SKaMPI discussion), then each destination gets a signal put.
  const std::size_t outstanding = shmem::pending_nbi_puts();
  shmem::quiet();
  papi::account_quiet(outstanding);
  bump(e.stats.progress_calls);
  for (HopState& hs : e.hops) {
    if (hs.seq_published >= hs.seq_flushed) continue;
    const int hop = hs.hop;
    if (fi::active() && !shmem::pe_alive(hop)) {
      // The receiver died between our flush and this publish: nobody will
      // ever consume these buffers. Retire the slots and count the staged
      // records as lost instead of signalling a corpse.
      for (std::int64_t seq = hs.seq_published; seq < hs.seq_flushed; ++seq) {
        const std::byte* stage =
            hs.staging.data() +
            static_cast<std::size_t>(seq % g.opts.slots) * g.slot_stride;
        std::int64_t len = 0;
        std::memcpy(&len, stage, sizeof len);
        g.lost.fetch_add(static_cast<std::uint64_t>(len) / g.record_bytes,
                         std::memory_order_relaxed);
      }
      hs.seq_published = hs.seq_flushed;
      continue;
    }
    const std::int64_t pub = hs.seq_flushed;
    shmem::put(static_cast<void*>(e.published_from + e.pe), &pub, sizeof pub,
               hop);
    g.ring(hop, hs.bell_slot);
    papi::account_signal_put();
    hs.seq_published = pub;
    notify(SendType::nonblock_progress, sizeof pub, e.pe, hop, 0);
  }
}

// ------------------------------------------------------------------- deliver

void Conveyor::deliver_incoming() {
  Group& g = *group_;
  Endpoint& e = *self_;
  // Visit only the sources whose doorbell rang, in ascending slot order:
  // PE order in dense mode, announcement order in compact mode — the order
  // the full scans this replaces visited them in. On the fiber backend no
  // other PE runs during a pass, so the rung set is the set of sources
  // with unconsumed buffers.
  if (!e.take_rung(g)) return;
  if (e.compact) e.resolve_rung(e.check_events);
  const std::size_t rec_sz = g.record_bytes;
  // Added to the shared counter once per pass: no other PE reads it
  // mid-pass on fiber, and under threads a late add can only delay
  // termination, never end it early.
  std::uint64_t delivered = 0;

  e.for_each_rung([&](std::size_t slot) {
    SrcState& from = e.srcs[slot];
    const auto s = static_cast<std::size_t>(from.src);
    bump(e.stats.deliver_visits);
    // Polling the publication flag with an acquire load is the edge that
    // orders the sender's ring writes (memcpy or quiet-completed nbi put,
    // both sequenced before its release store of the flag) before the
    // slot reads below.
    const std::int64_t pub =
        std::atomic_ref<std::int64_t>(e.published_from[s])
            .load(std::memory_order_acquire);
    if (e.check_events && from.consumed < pub)
      shmem::annotate_acquire_read(e.published_from + s,
                                   sizeof(std::int64_t));
    bool consumed_any = false;
    while (from.consumed < pub) {
      const std::int64_t seq = from.consumed;
      const std::size_t ring_slot =
          static_cast<std::size_t>(seq % g.opts.slots);
      const std::byte* base =
          e.ring +
          (s * static_cast<std::size_t>(g.opts.slots) + ring_slot) *
              g.slot_stride;
      std::int64_t len = 0;
      std::memcpy(&len, base, sizeof len);
      const std::byte* data = base + sizeof len;
      if (e.check_events)
        shmem::annotate_local_read(
            base, sizeof len + static_cast<std::size_t>(len));
      papi::account_buffer_copy(static_cast<std::size_t>(len));
      assert(len >= 0 &&
             static_cast<std::size_t>(len) % rec_sz == 0);
      // Scan the landing buffer for contiguous runs of records that share
      // a fate — final delivery here, or forwarding toward one next hop —
      // and move each run with a single memcpy instead of per-record
      // inserts. Each run counts its records as it grows (no divide).
      const std::size_t end = static_cast<std::size_t>(len);
      std::size_t off = 0;
      while (off < end) {
        const std::int32_t dst = load_dst(data + off);
        std::size_t run = rec_sz;
        std::uint64_t records = 1;
        if (fi::active() && dst != e.pe &&
            !shmem::pe_alive(static_cast<int>(dst))) {
          // Forwarding toward a dead destination would park the records in
          // a queue nobody drains; drop the whole run here and account it.
          for (; off + run < end && load_dst(data + off + run) == dst;
               ++records)
            run += rec_sz;
          g.lost.fetch_add(records, std::memory_order_relaxed);
        } else if (dst == e.pe) {
          for (; off + run < end && load_dst(data + off + run) == e.pe;
               ++records)
            run += rec_sz;
          // Final destination: wire records land verbatim in the recv
          // queue (drain skips the header fields).
          std::memcpy(e.recv.append(run, g.outbuf_capacity()), data + off,
                      run);
          bump(e.stats.memcpys);
          delivered += records;
        } else {
          const std::int32_t hop = e.hop_for(g, dst);
          for (; off + run < end; ++records) {
            const std::int32_t d2 = load_dst(data + off + run);
            if (d2 == e.pe || e.hop_for(g, d2) != hop) break;
            run += rec_sz;
          }
          // Intermediate hop: re-aggregate the whole run toward the next
          // hop. Forwarded records may exceed the buffer capacity (the
          // route deadlocks if they are dropped); append() grows for them.
          OutBuf& ob = e.hop_state(hop).out;
          std::memcpy(ob.append(run, g.outbuf_capacity()), data + off, run);
          bump(e.stats.memcpys);
          bump(e.stats.forwarded, records);
          while (ob.pending() >= g.payload_capacity()) {
            if (!try_flush(hop)) break;  // opportunistic; advance retries
          }
        }
        off += run;
      }
      from.consumed = seq + 1;
      consumed_any = true;
    }
    if (consumed_any) {
      // Ack so the sender can reuse its ring slots. acked_by[r] on the
      // sender holds what receiver r consumed; we are r, the sender is src.
      const std::int64_t acked = from.consumed;
      shmem::put(static_cast<void*>(e.acked_by + e.pe), &acked, sizeof acked,
                 from.src);
    }
  });
  if (delivered != 0)
    g.delivered.fetch_add(delivered, std::memory_order_relaxed);
}

// -------------------------------------------------------------------- drain

Conveyor::DrainBatch Conveyor::drain_begin() {
  Group& g = *group_;
  Endpoint& e = *self_;
  if (e.draining) {
    if (e.check_events)
      notify_misuse("conveyor: nested drain_begin() while a batch is open");
    return DrainBatch{nullptr, 0, 0, 0};
  }
  if (e.recv.pending() == 0) return DrainBatch{nullptr, 0, 0, 0};
  // Snapshot by swapping buffers: the callback may advance() and deliver
  // new records, which land in the (now empty) recv queue without
  // invalidating the views handed out over this batch. Both buffers keep
  // their storage, so steady state allocates nothing.
  std::swap(e.recv, e.drain_buf);
  e.draining = true;
  const std::size_t count = e.drain_buf.pending() / g.record_bytes;
  return DrainBatch{e.drain_buf.bytes.data() + e.drain_buf.head, count,
                    g.record_bytes, g.flow_bytes};
}

void Conveyor::drain_end(std::size_t count) {
  Endpoint& e = *self_;
  e.drain_buf.head = e.drain_buf.tail = 0;
  e.draining = false;
  bump(e.stats.pulled, count);
  bump(e.stats.drains);
}

void Conveyor::drain_abort(std::size_t consumed) {
  Group& g = *group_;
  Endpoint& e = *self_;
  // The record the callback threw on counts as consumed (the message left
  // the queue before the handler ran). Requeue the rest ahead of anything
  // delivered meanwhile.
  e.drain_buf.head += consumed * g.record_bytes;
  const std::size_t rest = e.drain_buf.pending();
  if (rest != 0) {
    OutBuf merged;
    merged.bytes.resize(rest + e.recv.pending());
    std::memcpy(merged.bytes.data(),
                e.drain_buf.bytes.data() + e.drain_buf.head, rest);
    if (e.recv.pending() != 0)  // empty recv has a null data()
      std::memcpy(merged.bytes.data() + rest,
                  e.recv.bytes.data() + e.recv.head, e.recv.pending());
    merged.tail = merged.bytes.size();
    std::swap(e.recv, merged);
  }
  e.drain_buf.head = e.drain_buf.tail = 0;
  e.draining = false;
  bump(e.stats.pulled, consumed);
  bump(e.stats.drains);
}

// ------------------------------------------------------------------ advance

bool Conveyor::advance(bool done) {
  Group& g = *group_;
  Endpoint& e = *self_;
  e.check_events =
      g_observer != nullptr && g_observer->wants_conformance_events();

  if (fi::active() && fi::on_advance(e.pe)) {
    // Stalled progress cycle: the fault plan decided this PE's progress
    // loop "was not called" this round — no delivery, no flush, no
    // publish. Windows are bounded, so termination is only delayed.
    papi::account_poll();
    return true;
  }

  papi::account_poll();
  if (g_observer != nullptr) {
    // Backpressure snapshot before this round moves anything: bytes queued
    // toward all touched next hops plus bytes delivered here but not yet
    // drained.
    std::size_t out_pending = 0;
    for (const HopState& hs : e.hops) out_pending += hs.out.pending();
    g_observer->on_advance(out_pending,
                           e.recv.pending() + e.drain_buf.pending());
  }
  deliver_incoming();

  if (done && !e.done_reported) {
    // Publish this PE's injection count before its done declaration —
    // push() throws after done, so the private counter is final here. The
    // release done_count increment paired with the acquire done_count read
    // in the termination check guarantees that once every PE is seen done,
    // every injection is in the counter: the equality can never terminate
    // the conveyor while records it has not counted are still in flight.
    // (Keeping the group counter out of the steady-state advance path also
    // keeps the per-round cost free of lock-prefixed instructions.)
    if (e.injected_unpublished != 0) {
      g.injected.fetch_add(e.injected_unpublished,
                           std::memory_order_release);
      e.injected_unpublished = 0;
    }
    e.done_reported = true;
    g.done_flags[static_cast<std::size_t>(e.pe)] = 1;
    g.done_count.fetch_add(1, std::memory_order_release);
  }

  if (e.done_reported) {
    // Endgame: drain partial buffers and publish everything (the lazy-send
    // policy only defers while more pushes may come).
    flush_all();
    progress_pending();
  } else {
    // Steady state: move out any full buffers that back-pressure left.
    flush_all();
  }

  deliver_incoming();

  // The acquire here pairs with every PE's release increment: seeing the
  // full count means seeing every injection published before each PE went
  // done. Short-circuit order matters — test done_count FIRST, then the
  // balance; read the other way a stale injected could equal a fresh
  // delivered and terminate early.
  bool all_done =
      g.done_count.load(std::memory_order_acquire) == g.topo.num_pes();
  if (!all_done && fi::active()) {
    // A killed PE never declares done; count it as done so the survivors'
    // termination does not wait for a corpse.
    all_done = true;
    for (int pe = 0; pe < g.topo.num_pes(); ++pe) {
      if (!g.done_flags[static_cast<std::size_t>(pe)] &&
          shmem::pe_alive(pe)) {
        all_done = false;
        break;
      }
    }
  }
  const bool globally_done =
      all_done && g.injected.load(std::memory_order_relaxed) ==
                      g.delivered.load(std::memory_order_relaxed) +
                          g.lost.load(std::memory_order_relaxed);
  const bool locally_drained =
      e.recv.pending() == 0 && e.drain_buf.pending() == 0;
  return !(globally_done && locally_drained);
}

}  // namespace ap::convey
