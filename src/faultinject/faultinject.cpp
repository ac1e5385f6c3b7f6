#include "faultinject/faultinject.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <limits>

#include "runtime/scheduler.hpp"

namespace ap::fi {

// Plain global: a plan is installed and removed outside a launch (tests,
// or shmem::run before it creates any worker thread), so thread creation
// orders the flag for every worker under the threads backend.
bool detail::g_active = false;
using detail::g_active;

namespace {

/// SplitMix64 (public-domain constants): one independent stream per PE so
/// the schedule of PE i never depends on how often other PEs hit hooks.
struct SplitMix64 {
  std::uint64_t state = 0;

  std::uint64_t next() {
    std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }

  /// Uniform double in [0, 1).
  double next_unit() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  std::uint64_t next_below(std::uint64_t bound) {
    return bound == 0 ? 0 : next() % bound;
  }
};

struct PeStream {
  SplitMix64 rng;
  int barriers_seen = 0;
  std::uint64_t advances_seen = 0;
  std::uint64_t advances_stalled = 0;
  int stall_left = 0;
  bool killed = false;
};

struct State {
  Plan plan;
  int straggler_yields = 0;  // per hook site, derived from the factor
  std::vector<PeStream> pes;

  // Post-mortem data, with the streams' stall counts: survives uninstall()
  // so trace writers and tests can consult it after shmem::run() returned.
  // Reset by the next install().
  std::vector<int> killed;
};

State g_state;

PeStream& stream(int pe) {
  auto& pes = g_state.pes;
  if (pe < 0) throw std::logic_error("faultinject: hook outside a PE fiber");
  if (static_cast<std::size_t>(pe) >= pes.size()) {
    const std::size_t old = pes.size();
    pes.resize(static_cast<std::size_t>(pe) + 1);
    for (std::size_t i = old; i < pes.size(); ++i)
      // Seed mixing: one splitmix step over (seed ^ f(pe)) decorrelates
      // neighbouring PEs' streams.
      pes[i].rng.state =
          g_state.plan.seed ^ (0x9E3779B97F4A7C15ull * (i + 1));
  }
  return pes[static_cast<std::size_t>(pe)];
}

void straggle(int pe) {
  if (pe != g_state.plan.straggler_pe) return;
  for (int i = 0; i < g_state.straggler_yields; ++i) rt::yield();
}

// ---- strict ACTORPROF_FI_* parsing (same policy as core/config.cpp) ------

[[noreturn]] void bad_value(const char* name, const char* text,
                            const char* expected) {
  throw std::invalid_argument(std::string(name) + "=\"" + text +
                              "\": expected " + expected);
}

double env_prob(const char* name, double fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr) return fallback;
  errno = 0;
  char* end = nullptr;
  const double parsed = std::strtod(v, &end);
  if (end == v || *end != '\0' || errno == ERANGE || !(parsed >= 0.0) ||
      parsed > 1.0)
    bad_value(name, v, "a probability in [0, 1]");
  return parsed;
}

double env_factor(const char* name, double fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr) return fallback;
  errno = 0;
  char* end = nullptr;
  const double parsed = std::strtod(v, &end);
  if (end == v || *end != '\0' || errno == ERANGE || !(parsed >= 1.0))
    bad_value(name, v, "a factor >= 1.0");
  return parsed;
}

long long env_int(const char* name, long long fallback, long long min,
                  const char* expected) {
  const char* v = std::getenv(name);
  if (v == nullptr) return fallback;
  errno = 0;
  char* end = nullptr;
  const long long parsed = std::strtoll(v, &end, 10);
  if (end == v || *end != '\0' || errno == ERANGE || parsed < min)
    bad_value(name, v, expected);
  return parsed;
}

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr) return fallback;
  errno = 0;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(v, &end, 10);
  if (end == v || *end != '\0' || errno == ERANGE)
    bad_value(name, v, "an unsigned 64-bit seed");
  return parsed;
}

}  // namespace

PeKilledError::PeKilledError(int pe, int barrier_index)
    : std::runtime_error("fault injection killed PE" + std::to_string(pe) +
                         " at barrier " + std::to_string(barrier_index)),
      pe_(pe),
      barrier_index_(barrier_index) {}

bool Plan::enabled() const {
  return delay_put_prob > 0.0 || dup_put_prob > 0.0 ||
         reorder_put_prob > 0.0 ||
         (straggler_pe >= 0 && straggler_factor > 1.0) || stall_pe >= 0 ||
         kill_pe >= 0;
}

Plan Plan::from_env() {
  Plan p;
  p.seed = env_u64("ACTORPROF_FI_SEED", p.seed);
  p.delay_put_prob = env_prob("ACTORPROF_FI_DELAY_PUTS", p.delay_put_prob);
  p.delay_yields = static_cast<int>(
      env_int("ACTORPROF_FI_DELAY_YIELDS", p.delay_yields, 1,
              "a positive yield count"));
  p.dup_put_prob = env_prob("ACTORPROF_FI_DUP_PUTS", p.dup_put_prob);
  p.reorder_put_prob =
      env_prob("ACTORPROF_FI_REORDER_PUTS", p.reorder_put_prob);
  p.straggler_pe = static_cast<int>(
      env_int("ACTORPROF_FI_STRAGGLER_PE", p.straggler_pe, 0,
              "a PE index >= 0"));
  p.straggler_factor =
      env_factor("ACTORPROF_FI_STRAGGLER_FACTOR", p.straggler_factor);
  p.stall_pe = static_cast<int>(
      env_int("ACTORPROF_FI_STALL_PE", p.stall_pe, 0, "a PE index >= 0"));
  p.stall_every = static_cast<int>(
      env_int("ACTORPROF_FI_STALL_EVERY", p.stall_every, 2,
              "an advance interval >= 2"));
  p.stall_len = static_cast<int>(
      env_int("ACTORPROF_FI_STALL_LEN", p.stall_len, 1,
              "a positive window length"));
  p.kill_pe = static_cast<int>(
      env_int("ACTORPROF_FI_KILL_PE", p.kill_pe, 0, "a PE index >= 0"));
  p.kill_at_barrier = static_cast<int>(
      env_int("ACTORPROF_FI_KILL_AT_BARRIER", p.kill_at_barrier, 0,
              "a barrier index >= 0"));
  if (p.stall_len >= p.stall_every)
    throw std::invalid_argument(
        "ACTORPROF_FI_STALL_LEN must be < ACTORPROF_FI_STALL_EVERY "
        "(stall windows must be bounded or the run cannot terminate)");
  return p;
}

void install(const Plan& plan) {
  if (g_active)
    throw std::logic_error("faultinject: a plan is already installed");
  if (plan.stall_len >= plan.stall_every)
    throw std::invalid_argument(
        "faultinject: stall_len must be < stall_every");
  g_state = State{};
  g_state.plan = plan;
  g_state.straggler_yields = static_cast<int>(
      std::min(plan.straggler_factor - 1.0, 64.0));
  g_active = true;
}

void uninstall() {
  // Keep the streams and the killed set for post-mortem queries.
  g_active = false;
}

const Plan& plan() {
  if (!g_active) throw std::logic_error("faultinject: no plan installed");
  return g_state.plan;
}

BarrierAction on_barrier(int pe) {
  if (!g_active) return BarrierAction::none;
  PeStream& s = stream(pe);
  const int k = s.barriers_seen++;
  straggle(pe);
  if (pe == g_state.plan.kill_pe && !s.killed &&
      k >= g_state.plan.kill_at_barrier) {
    s.killed = true;  // note_killed() records it post-mortem
    return BarrierAction::kill;
  }
  return BarrierAction::none;
}

bool on_advance(int pe) {
  if (!g_active) return false;
  PeStream& s = stream(pe);
  const std::uint64_t k = s.advances_seen++;
  straggle(pe);
  if (pe != g_state.plan.stall_pe) return false;
  if (s.stall_left > 0) {
    --s.stall_left;
    ++s.advances_stalled;
    return true;
  }
  if (k % static_cast<std::uint64_t>(g_state.plan.stall_every) ==
      static_cast<std::uint64_t>(g_state.plan.stall_every) - 1) {
    // Window length is deterministic per occurrence: 1..stall_len.
    s.stall_left = 1 + static_cast<int>(s.rng.next_below(
                           static_cast<std::uint64_t>(g_state.plan.stall_len)));
    --s.stall_left;  // this call is the first stalled one
    ++s.advances_stalled;
    return true;
  }
  return false;
}

bool plan_quiet(int pe, std::size_t n_pending, QuietSchedule& out) {
  if (!g_active || n_pending == 0) return false;
  const Plan& p = g_state.plan;
  if (p.delay_put_prob <= 0.0 && p.dup_put_prob <= 0.0 &&
      p.reorder_put_prob <= 0.0)
    return false;
  PeStream& s = stream(pe);
  const bool reorder = s.rng.next_unit() < p.reorder_put_prob;
  const bool dup = s.rng.next_unit() < p.dup_put_prob;
  const bool delay = s.rng.next_unit() < p.delay_put_prob;
  if (!reorder && !dup && !delay) return false;

  out.order.clear();
  out.order.reserve(n_pending + 1);
  for (std::size_t i = 0; i < n_pending; ++i)
    out.order.push_back(static_cast<std::uint32_t>(i));
  if (reorder) {
    // Fisher-Yates with our own stream (std::shuffle's draws are
    // implementation-defined, which would break cross-stdlib determinism).
    for (std::size_t i = n_pending - 1; i > 0; --i) {
      const std::size_t j =
          static_cast<std::size_t>(s.rng.next_below(i + 1));
      std::swap(out.order[i], out.order[j]);
    }
  }
  if (dup) {
    const auto victim = static_cast<std::uint32_t>(
        s.rng.next_below(n_pending));
    out.order.push_back(victim);  // applied again at the tail: a legal
                                  // duplicate completion of the same put
  }
  out.delayed_from = out.order.size();
  out.yields = 0;
  if (delay) {
    // Hold back a suffix of completions across a few scheduler yields —
    // other PEs observably run before these puts land (quiet still
    // completes them before returning).
    out.delayed_from = static_cast<std::size_t>(
        s.rng.next_below(out.order.size()));
    out.yields = g_state.plan.delay_yields;
  }
  return true;
}

void note_killed(int pe) {
  if (std::find(g_state.killed.begin(), g_state.killed.end(), pe) !=
      g_state.killed.end())
    return;
  g_state.killed.push_back(pe);
  std::sort(g_state.killed.begin(), g_state.killed.end());
}

bool was_killed(int pe) {
  return std::find(g_state.killed.begin(), g_state.killed.end(), pe) !=
         g_state.killed.end();
}

const std::vector<int>& killed_pes() { return g_state.killed; }

std::uint64_t stalled_advances(int pe) {
  const auto& pes = g_state.pes;
  return pe >= 0 && static_cast<std::size_t>(pe) < pes.size()
             ? pes[static_cast<std::size_t>(pe)].advances_stalled
             : 0;
}

}  // namespace ap::fi
