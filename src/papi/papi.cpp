#include "papi/cycles.hpp"
#include "papi/papi.hpp"

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <utility>
#include <vector>

#include "runtime/scheduler.hpp"

namespace ap::papi {

namespace {

struct PeCounters {
  Counters raw{};
  // Sub-miss residues (1/1024 units) so per-call integer rounding does not
  // swallow miss rates when callers account one access at a time.
  std::uint64_t l1_residue = 0;
  std::uint64_t l2_residue = 0;
};

// Slot 0 holds the "outside any launch" counters; slot pe+1 holds PE pe.
// Deliberately thread_local even under the threads backend: a PE's
// counters live on the one worker that runs it (workers are created fresh
// per launch), so the hot account_* paths never need atomics. The vector
// has a destructor, so each access to it passes a TLS initialisation
// guard: charges read the constant-initialised view below instead, and
// the vector itself is touched only when a slot is created or reset.
std::vector<PeCounters>& pes_storage() {
  thread_local std::vector<PeCounters> pes(1);
  return pes;
}
constinit thread_local PeCounters* t_pes = nullptr;
constinit thread_local std::size_t t_num_pes = 0;

void refresh_view(std::vector<PeCounters>& pes) {
  t_pes = pes.data();
  t_num_pes = pes.size();
}

[[gnu::noinline]] PeCounters& grow_pes(std::size_t idx) {
  std::vector<PeCounters>& pes = pes_storage();
  if (pes.size() <= idx) pes.resize(idx + 1);
  refresh_view(pes);
  return pes[idx];
}

PeCounters& pe_counters() {
  const auto idx = static_cast<std::size_t>(rt::my_pe() + 1);
  if (idx < t_num_pes) [[likely]] return t_pes[idx];
  return grow_pes(idx);
}

constexpr std::uint64_t& at(Counters& raw, Event e) {
  return raw[static_cast<std::size_t>(e)];
}

/// The per-event amounts of one charge of `ins` instructions etc. under
/// model `m`, whose `ipc_x16` divisor is `per_ipc`.
constexpr Counters amounts(const CostModel& m, const Reciprocal& per_ipc,
                           std::uint64_t ins, std::uint64_t loads,
                           std::uint64_t stores, std::uint64_t branches,
                           std::uint64_t l1_dcm, std::uint64_t l2_dcm) {
  Counters c{};
  at(c, Event::TOT_INS) = ins;
  at(c, Event::LD_INS) = loads;
  at(c, Event::SR_INS) = stores;
  at(c, Event::LST_INS) = loads + stores;
  at(c, Event::BR_INS) = branches;
  at(c, Event::BR_MSP) = branches * m.br_msp_per_1024 / 1024;
  at(c, Event::L1_DCM) = l1_dcm;
  at(c, Event::L2_DCM) = l2_dcm;
  at(c, Event::TOT_CYC) = per_ipc.divide(ins * 16) +
                          l1_dcm * m.l1_penalty_cycles +
                          l2_dcm * m.l2_penalty_cycles;
  return c;
}

/// What a model fixes for a whole launch, derived once when it is set: the
/// two divisors as exact reciprocals, and the complete counter increments
/// of every charge whose amounts do not depend on its argument (network
/// cycles and cache misses that do are added on top).
struct Derived {
  Reciprocal per_ipc;           // x / ipc_x16 (16 when the model says 0)
  Reciprocal per_payload_den;   // x / ins_per_payload_byte_den
  Counters poll{};
  Counters signal_put{};
  Counters local_flush{};
  Counters remote_put{};        // + bytes * net_put_cycles_per_byte_x16 / 16
  Counters quiet{};             // + outstanding * net_quiet_cycles_per_put
  Counters random_access{};     // one access; + its L1/L2 misses

  constexpr explicit Derived(const CostModel& m)
      : per_ipc(m.ipc_x16 == 0 ? 16 : m.ipc_x16),
        per_payload_den(m.ins_per_payload_byte_den) {
    const auto fixed = [&](std::uint64_t ins, std::uint64_t loads,
                           std::uint64_t stores, std::uint64_t branches,
                           std::uint64_t l1_dcm, std::uint64_t cycles) {
      Counters c = amounts(m, per_ipc, ins, loads, stores, branches, l1_dcm, 0);
      at(c, Event::TOT_CYC) += cycles;
      return c;
    };
    poll = fixed(12, 4, 0, 4, 0, m.net_poll_cycles);
    signal_put = fixed(15, 2, 2, 2, 0, m.net_signal_put_cycles);
    local_flush = fixed(20, 4, 4, 4, 0, m.net_local_flush_cycles);
    remote_put = fixed(40, 6, 6, 6, 1, m.net_put_fixed_cycles);
    quiet = fixed(30, 4, 2, 6, 0, m.net_quiet_fixed_cycles);
    random_access = fixed(2, 1, 0, 1, 0, 0);
  }
};

// The cost model is a plain global: set before a launch (tests, ablation)
// and read-only inside one, so thread creation orders it for workers.
CostModel g_model{};
constinit Derived g_derived{CostModel{}};

template <std::size_t... I>
void add_each(Counters& raw, const Counters& amount, std::uint64_t n,
              std::index_sequence<I...>) {
  ((raw[I] += n * amount[I]), ...);
}

/// raw += n * amount, event by event, unrolled.
void add(Counters& raw, const Counters& amount, std::uint64_t n = 1) {
  add_each(raw, amount, n, std::make_index_sequence<kNumEvents>{});
}

// Fleet-clock state for the threads backend: with PEs spread over worker
// threads, the virtual clock sync cannot scan one thread's counters to
// find the fleet max — workers publish their local max into a shared
// CAS-max cell instead. Enabled by shmem::run around a threads-backend
// launch.
bool g_shared_clock = false;
std::atomic<std::uint64_t> g_fleet_max{0};

/// Charge one operation whose amounts depend on its argument.
void charge(Counters& raw, std::uint64_t ins, std::uint64_t loads,
            std::uint64_t stores, std::uint64_t branches, std::uint64_t l1_dcm,
            std::uint64_t l2_dcm) {
  add(raw, amounts(g_model, g_derived.per_ipc, ins, loads, stores, branches,
                   l1_dcm, l2_dcm));
}

}  // namespace

std::string_view name(Event e) {
  switch (e) {
    case Event::TOT_INS: return "PAPI_TOT_INS";
    case Event::TOT_CYC: return "PAPI_TOT_CYC";
    case Event::LST_INS: return "PAPI_LST_INS";
    case Event::LD_INS: return "PAPI_LD_INS";
    case Event::SR_INS: return "PAPI_SR_INS";
    case Event::L1_DCM: return "PAPI_L1_DCM";
    case Event::L2_DCM: return "PAPI_L2_DCM";
    case Event::BR_INS: return "PAPI_BR_INS";
    case Event::BR_MSP: return "PAPI_BR_MSP";
    case Event::kCount: break;
  }
  return "PAPI_UNKNOWN";
}

const CostModel& cost_model() { return g_model; }

void set_cost_model(const CostModel& m) {
  if (m.ins_per_payload_byte_den == 0)
    throw std::invalid_argument(
        "sim-PAPI: CostModel::ins_per_payload_byte_den must be > 0");
  g_model = m;
  g_derived = Derived(m);
}

MessageCharges message_charges(std::size_t bytes) {
  const CostModel& m = g_model;
  const std::uint64_t payload_ins =
      g_derived.per_payload_den.divide(bytes * m.ins_per_payload_byte_num);
  MessageCharges c;
  c.construct = amounts(m, g_derived.per_ipc,
                        m.ins_per_message_construct + payload_ins,
                        /*loads=*/2 + bytes / 16, /*stores=*/3 + bytes / 8,
                        m.branches_per_message, /*l1_dcm=*/0, /*l2_dcm=*/0);
  c.handle = amounts(m, g_derived.per_ipc,
                     m.ins_per_message_handle + payload_ins,
                     /*loads=*/3 + bytes / 8, /*stores=*/1 + bytes / 16,
                     m.branches_per_message, /*l1_dcm=*/0, /*l2_dcm=*/0);
  return c;
}

void account_n(const Counters& increment, std::uint64_t n) {
  add(pe_counters().raw, increment, n);
}

void account_buffer_copy(std::size_t bytes) {
  // Vectorized copy: ~1 instruction per 16 bytes each way.
  const std::uint64_t ops = bytes / 16 + 1;
  charge(pe_counters().raw, 2 * ops, ops, ops, 2, bytes / 256, 0);
}

void account_loop_iters(std::uint64_t n) {
  charge(pe_counters().raw, 4 * n, n, 0, n, 0, 0);
}

void account_random_access(std::size_t footprint, std::uint64_t n) {
  const CostModel& m = g_model;
  PeCounters& pc = pe_counters();
  std::uint64_t l1 = 0, l2 = 0;
  if (footprint > m.l1_bytes) {
    const std::uint64_t acc = n * m.l1_miss_per_1024_beyond_l1 + pc.l1_residue;
    l1 = acc / 1024;
    pc.l1_residue = acc % 1024;
  }
  if (footprint > m.l2_bytes) {
    const std::uint64_t acc = n * m.l2_miss_per_1024_beyond_l2 + pc.l2_residue;
    l2 = acc / 1024;
    pc.l2_residue = acc % 1024;
  }
  if (n != 1) {
    // The branch-miss and cycle roundings are per call, not per access.
    charge(pc.raw, 2 * n, n, 0, n, l1, l2);
    return;
  }
  // One access (every handler probe): the derived increment plus the
  // misses this access completed.
  add(pc.raw, g_derived.random_access);
  at(pc.raw, Event::L1_DCM) += l1;
  at(pc.raw, Event::L2_DCM) += l2;
  at(pc.raw, Event::TOT_CYC) +=
      l1 * m.l1_penalty_cycles + l2 * m.l2_penalty_cycles;
}

void account_local_flush(std::size_t bytes) {
  (void)bytes;
  add(pe_counters().raw, g_derived.local_flush);
}

void account_remote_put(std::size_t bytes) {
  Counters& raw = pe_counters().raw;
  add(raw, g_derived.remote_put);
  at(raw, Event::TOT_CYC) += bytes * g_model.net_put_cycles_per_byte_x16 / 16;
}

void account_quiet(std::size_t outstanding_puts) {
  Counters& raw = pe_counters().raw;
  add(raw, g_derived.quiet);
  at(raw, Event::TOT_CYC) +=
      outstanding_puts * g_model.net_quiet_cycles_per_put;
}

void account_signal_put() { add(pe_counters().raw, g_derived.signal_put); }

void account_poll() { add(pe_counters().raw, g_derived.poll); }

void sync_virtual_clock() {
  if (cycle_source() != CycleSource::virtual_) return;
  std::uint64_t mx = 0;
  for (std::size_t i = 0; i < t_num_pes; ++i)
    mx = std::max(mx, t_pes[i].raw[static_cast<std::size_t>(Event::TOT_CYC)]);
  if (g_shared_clock) {
    // Publish this worker's local max and adopt the fleet-wide one.
    std::uint64_t cur = g_fleet_max.load(std::memory_order_relaxed);
    while (mx > cur &&
           !g_fleet_max.compare_exchange_weak(cur, mx,
                                              std::memory_order_acq_rel,
                                              std::memory_order_relaxed)) {
    }
    mx = std::max(mx, g_fleet_max.load(std::memory_order_relaxed));
  }
  std::uint64_t& mine = at(pe_counters().raw, Event::TOT_CYC);
  mine = std::max(mine, mx);
}

void set_shared_clock(bool on) {
  g_shared_clock = on;
  g_fleet_max.store(0, std::memory_order_relaxed);
}

std::uint64_t counter_value(Event e) {
  return pe_counters().raw[static_cast<std::size_t>(e)];
}

const Counters& counters() { return pe_counters().raw; }

void reset_all() {
  std::vector<PeCounters>& pes = pes_storage();
  pes.clear();
  pes.resize(1);
  refresh_view(pes);
  g_fleet_max.store(0, std::memory_order_relaxed);
}

}  // namespace ap::papi
