#include "papi/cycles.hpp"
#include "papi/papi.hpp"

#include <atomic>
#include <string>
#include <stdexcept>
#include <vector>

#include "runtime/scheduler.hpp"

namespace ap::papi {

namespace {

struct EventSet {
  bool live = false;     // created and not destroyed
  bool running = false;  // between start() and stop()
  int n = 0;
  std::array<Event, kMaxEventsPerSet> events{};
  std::array<std::uint64_t, kMaxEventsPerSet> started_at{};
  std::array<std::uint64_t, kMaxEventsPerSet> accumulated{};
};

struct PeCounters {
  Counters raw{};
  std::vector<EventSet> sets;
  int running_sets = 0;  // concurrent-event limit spans sets
  // Sub-miss residues (1/1024 units) so per-call integer rounding does not
  // swallow miss rates when callers account one access at a time.
  std::uint64_t l1_residue = 0;
  std::uint64_t l2_residue = 0;
};

// Slot 0 holds the "outside any launch" counters; slot pe+1 holds PE pe.
// Deliberately thread_local even under the threads backend: a PE's
// counters live on the one worker that runs it (workers are created fresh
// per launch), so the hot account_* paths never need atomics.
thread_local std::vector<PeCounters> g_pes(1);
// The cost model is a plain global: set before a launch (tests, ablation)
// and read-only inside one, so thread creation orders it for workers.
CostModel g_model{};

// Fleet-clock state for the threads backend: with PEs spread over worker
// threads, the virtual clock sync cannot scan one thread's g_pes to find
// the fleet max — workers publish their local max into a shared CAS-max
// cell instead. Enabled by shmem::run around a threads-backend launch.
bool g_shared_clock = false;
std::atomic<std::uint64_t> g_fleet_max{0};

PeCounters& pe_counters() {
  const int pe = rt::my_pe();
  const std::size_t idx = static_cast<std::size_t>(pe + 1);
  if (g_pes.size() <= idx) g_pes.resize(idx + 1);
  return g_pes[idx];
}

std::uint64_t& at(Counters& raw, Event e) {
  return raw[static_cast<std::size_t>(e)];
}

/// How many of `total` concurrently running events exist on this PE.
int total_running_events(const PeCounters& pc) {
  int n = 0;
  for (const EventSet& s : pc.sets)
    if (s.live && s.running) n += s.n;
  return n;
}

/// Charge `n` identical operations in one call, plus `extra_cycles` of
/// network time once. Every per-event amount is the single-call rounded
/// value multiplied by n, so one charge_n(n, ...) is byte-identical to n
/// charge(...) calls — the property the runtime's once-per-batch
/// accounting depends on. Callers resolve the PE's counters once.
void charge_n(Counters& raw, std::uint64_t n, std::uint64_t ins,
              std::uint64_t loads, std::uint64_t stores,
              std::uint64_t branches, std::uint64_t l1_dcm,
              std::uint64_t l2_dcm, std::uint64_t extra_cycles = 0) {
  const CostModel& m = g_model;
  at(raw, Event::TOT_INS) += n * ins;
  at(raw, Event::LD_INS) += n * loads;
  at(raw, Event::SR_INS) += n * stores;
  at(raw, Event::LST_INS) += n * (loads + stores);
  at(raw, Event::BR_INS) += n * branches;
  at(raw, Event::BR_MSP) += n * (branches * m.br_msp_per_1024 / 1024);
  at(raw, Event::L1_DCM) += n * l1_dcm;
  at(raw, Event::L2_DCM) += n * l2_dcm;
  const std::uint64_t cyc = ins * 16 / (m.ipc_x16 == 0 ? 16 : m.ipc_x16) +
                            l1_dcm * m.l1_penalty_cycles +
                            l2_dcm * m.l2_penalty_cycles;
  at(raw, Event::TOT_CYC) += n * cyc + extra_cycles;
}

void charge(std::uint64_t ins, std::uint64_t loads, std::uint64_t stores,
            std::uint64_t branches, std::uint64_t l1_dcm,
            std::uint64_t l2_dcm, std::uint64_t extra_cycles = 0) {
  charge_n(pe_counters().raw, 1, ins, loads, stores, branches, l1_dcm, l2_dcm,
           extra_cycles);
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

std::optional<Event> parse(std::string_view s) {
  for (int i = 0; i < kNumEvents; ++i) {
    const Event e = static_cast<Event>(i);
    if (name(e) == s) return e;
  }
  return std::nullopt;
}

const CostModel& cost_model() { return g_model; }
void set_cost_model(const CostModel& m) { g_model = m; }

void account(Event e, std::uint64_t n) {
  if (e == Event::kCount) return;
  at(pe_counters().raw, e) += n;
}

void account_message_construct_n(std::size_t bytes, std::uint64_t n) {
  const CostModel& m = g_model;
  const std::uint64_t payload_ins =
      bytes * m.ins_per_payload_byte_num / m.ins_per_payload_byte_den;
  const std::uint64_t ins = m.ins_per_message_construct + payload_ins;
  charge_n(pe_counters().raw, n, ins, /*loads=*/2 + bytes / 16,
           /*stores=*/3 + bytes / 8, m.branches_per_message, /*l1=*/0,
           /*l2=*/0);
}

void account_message_construct(std::size_t bytes) {
  account_message_construct_n(bytes, 1);
}

void account_message_handle_n(std::size_t bytes, std::uint64_t n) {
  const CostModel& m = g_model;
  const std::uint64_t payload_ins =
      bytes * m.ins_per_payload_byte_num / m.ins_per_payload_byte_den;
  const std::uint64_t ins = m.ins_per_message_handle + payload_ins;
  charge_n(pe_counters().raw, n, ins, /*loads=*/3 + bytes / 8,
           /*stores=*/1 + bytes / 16, m.branches_per_message, /*l1=*/0,
           /*l2=*/0);
}

void account_message_handle(std::size_t bytes) {
  account_message_handle_n(bytes, 1);
}

void account_buffer_copy(std::size_t bytes) {
  // Vectorized copy: ~1 instruction per 16 bytes each way.
  const std::uint64_t ops = bytes / 16 + 1;
  charge(2 * ops, ops, ops, 2, bytes / 256, 0);
}

void account_loop_iters(std::uint64_t n) {
  charge(4 * n, n, 0, n, 0, 0);
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
  charge_n(pc.raw, 1, 2 * n, n, 0, n, l1, l2);
}

void account_local_flush(std::size_t bytes) {
  (void)bytes;
  charge(20, 4, 4, 4, 0, 0, g_model.net_local_flush_cycles);
}

void account_remote_put(std::size_t bytes) {
  charge(40, 6, 6, 6, 1, 0,
         g_model.net_put_fixed_cycles +
             bytes * g_model.net_put_cycles_per_byte_x16 / 16);
}

void account_quiet(std::size_t outstanding_puts) {
  charge(30, 4, 2, 6, 0, 0,
         g_model.net_quiet_fixed_cycles +
             outstanding_puts * g_model.net_quiet_cycles_per_put);
}

void account_signal_put() {
  charge(15, 2, 2, 2, 0, 0, g_model.net_signal_put_cycles);
}

void account_poll() { charge(12, 4, 0, 4, 0, 0, g_model.net_poll_cycles); }

void sync_virtual_clock() {
  if (cycle_source() != CycleSource::virtual_) return;
  std::uint64_t mx = 0;
  for (const PeCounters& pc : g_pes)
    mx = std::max(mx, pc.raw[static_cast<std::size_t>(Event::TOT_CYC)]);
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
  g_pes.clear();
  g_pes.resize(1);
  g_fleet_max.store(0, std::memory_order_relaxed);
}

int library_init() { return PAPI_OK; }

int create_eventset(int* set) {
  if (set == nullptr) return PAPI_EINVAL;
  PeCounters& pc = pe_counters();
  for (std::size_t i = 0; i < pc.sets.size(); ++i) {
    if (!pc.sets[i].live) {
      pc.sets[i] = EventSet{};
      pc.sets[i].live = true;
      *set = static_cast<int>(i);
      return PAPI_OK;
    }
  }
  pc.sets.push_back(EventSet{});
  pc.sets.back().live = true;
  *set = static_cast<int>(pc.sets.size() - 1);
  return PAPI_OK;
}

namespace {
EventSet* live_set(int set) {
  PeCounters& pc = pe_counters();
  if (set < 0 || static_cast<std::size_t>(set) >= pc.sets.size())
    return nullptr;
  EventSet& s = pc.sets[static_cast<std::size_t>(set)];
  return s.live ? &s : nullptr;
}
}  // namespace

int add_event(int set, Event e) {
  EventSet* s = live_set(set);
  if (s == nullptr) return PAPI_EINVAL;
  if (s->running) return PAPI_EISRUN;
  if (e == Event::kCount) return PAPI_ENOEVNT;
  if (s->n >= kMaxEventsPerSet) return PAPI_ECNFLCT;
  for (int i = 0; i < s->n; ++i)
    if (s->events[static_cast<std::size_t>(i)] == e) return PAPI_ECNFLCT;
  s->events[static_cast<std::size_t>(s->n++)] = e;
  return PAPI_OK;
}

int num_events(int set) {
  EventSet* s = live_set(set);
  return s == nullptr ? PAPI_EINVAL : s->n;
}

int start(int set) {
  EventSet* s = live_set(set);
  if (s == nullptr) return PAPI_EINVAL;
  if (s->running) return PAPI_EISRUN;
  PeCounters& pc = pe_counters();
  // Model the hardware limitation the paper cites: at most four events can
  // be counted concurrently on one PE, across all of its event sets.
  if (total_running_events(pc) + s->n > kMaxEventsPerSet) return PAPI_ECNFLCT;
  for (int i = 0; i < s->n; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    s->started_at[idx] = pc.raw[static_cast<std::size_t>(s->events[idx])];
    s->accumulated[idx] = 0;
  }
  s->running = true;
  ++pc.running_sets;
  return PAPI_OK;
}

namespace {
void fold_running(EventSet& s, PeCounters& pc) {
  for (int i = 0; i < s.n; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    const std::uint64_t now = pc.raw[static_cast<std::size_t>(s.events[idx])];
    s.accumulated[idx] += now - s.started_at[idx];
    s.started_at[idx] = now;
  }
}
}  // namespace

int stop(int set, long long* values) {
  EventSet* s = live_set(set);
  if (s == nullptr) return PAPI_EINVAL;
  if (!s->running) return PAPI_ENOTRUN;
  PeCounters& pc = pe_counters();
  fold_running(*s, pc);
  s->running = false;
  --pc.running_sets;
  if (values != nullptr)
    for (int i = 0; i < s->n; ++i)
      values[i] = static_cast<long long>(
          s->accumulated[static_cast<std::size_t>(i)]);
  return PAPI_OK;
}

int read(int set, long long* values) {
  EventSet* s = live_set(set);
  if (s == nullptr) return PAPI_EINVAL;
  if (values == nullptr) return PAPI_EINVAL;
  if (s->running) fold_running(*s, pe_counters());
  for (int i = 0; i < s->n; ++i)
    values[i] =
        static_cast<long long>(s->accumulated[static_cast<std::size_t>(i)]);
  return PAPI_OK;
}

int reset(int set) {
  EventSet* s = live_set(set);
  if (s == nullptr) return PAPI_EINVAL;
  PeCounters& pc = pe_counters();
  for (int i = 0; i < s->n; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    s->accumulated[idx] = 0;
    s->started_at[idx] = pc.raw[static_cast<std::size_t>(s->events[idx])];
  }
  return PAPI_OK;
}

int cleanup_eventset(int set) {
  EventSet* s = live_set(set);
  if (s == nullptr) return PAPI_EINVAL;
  if (s->running) return PAPI_EISRUN;
  s->n = 0;
  return PAPI_OK;
}

int destroy_eventset(int* set) {
  if (set == nullptr) return PAPI_EINVAL;
  EventSet* s = live_set(*set);
  if (s == nullptr) return PAPI_EINVAL;
  if (s->running) return PAPI_EISRUN;
  s->live = false;
  *set = -1;
  return PAPI_OK;
}

ScopedCounting::ScopedCounting(std::initializer_list<Event> events) {
  if (create_eventset(&set_) != PAPI_OK)
    throw std::runtime_error("sim-PAPI: create_eventset failed");
  for (Event e : events) {
    if (add_event(set_, e) != PAPI_OK)
      throw std::runtime_error("sim-PAPI: add_event failed (too many events?)");
    ++n_;
  }
  if (start(set_) != PAPI_OK)
    throw std::runtime_error("sim-PAPI: start failed (4-event limit?)");
}

ScopedCounting::~ScopedCounting() {
  long long dummy[kMaxEventsPerSet] = {};
  (void)stop(set_, dummy);
  (void)destroy_eventset(&set_);
}

std::array<long long, kMaxEventsPerSet> ScopedCounting::values() const {
  std::array<long long, kMaxEventsPerSet> out{};
  (void)read(set_, out.data());
  return out;
}

}  // namespace ap::papi
