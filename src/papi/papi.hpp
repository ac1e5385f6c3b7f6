// sim-PAPI: a PAPI-compatible hardware-performance-counter substrate.
//
// The paper reads real PAPI counters (PAPI_TOT_INS, PAPI_LST_INS, ...)
// around the MAIN and PROC segments of an HClib-Actor program. This box has
// no PAPI and no perf counters exposed, so — per the substitution rule in
// DESIGN.md — we keep PAPI's event names and its four-event limit, backed
// by a deterministic software cost model. The runtime and the applications
// feed the model through the account_* functions; every counter is per-PE,
// and the profiler reads a PE's counters() directly at segment boundaries.
// Absolute values are model units; relative per-PE shapes (what Figures
// 10–11 plot) are preserved because the model is linear in the work each
// PE actually performs.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

namespace ap::papi {

/// The preset events the model maintains (names match PAPI's).
enum class Event : int {
  TOT_INS,  ///< total instructions completed
  TOT_CYC,  ///< total cycles (derived: instructions + memory penalties)
  LST_INS,  ///< load/store instructions (LD_INS + SR_INS)
  LD_INS,   ///< load instructions
  SR_INS,   ///< store instructions
  L1_DCM,   ///< level-1 data-cache misses
  L2_DCM,   ///< level-2 data-cache misses
  BR_INS,   ///< branch instructions
  BR_MSP,   ///< mispredicted branches
  kCount
};

inline constexpr int kNumEvents = static_cast<int>(Event::kCount);

/// One PE's raw counters, indexed by Event.
using Counters =
    std::array<std::uint64_t, static_cast<std::size_t>(kNumEvents)>;

/// "PAPI_TOT_INS"-style canonical name.
std::string_view name(Event e);

// ---------------------------------------------------------------------------
// Software cost model. All account_* calls charge the *current PE* (the PE
// executing when called; a process-global slot is used outside any launch so
// the module is testable standalone).
// ---------------------------------------------------------------------------

/// Tunable instruction/miss costs of the abstract operations. The defaults
/// approximate a superscalar x86 core; they only need to be *fixed*, not
/// exact, for the paper's relative analyses to hold.
struct CostModel {
  std::uint64_t ins_per_message_construct = 12;
  std::uint64_t ins_per_message_handle = 28;
  std::uint64_t ins_per_payload_byte_num = 1;   // +bytes/8 instructions
  std::uint64_t ins_per_payload_byte_den = 8;
  std::uint64_t branches_per_message = 4;
  /// Branch misprediction rate in 1/1024 units (2% ≈ 20).
  std::uint64_t br_msp_per_1024 = 20;
  /// L1 miss rate (per access, 1/1024) once a random-access footprint
  /// exceeds the L1 / L2 sizes below.
  std::uint64_t l1_miss_per_1024_beyond_l1 = 600;
  std::uint64_t l2_miss_per_1024_beyond_l2 = 700;
  std::size_t l1_bytes = 32 * 1024;
  std::size_t l2_bytes = 1024 * 1024;
  /// Cycle accounting: cycles = ins/ipc + l1_dcm*l1_penalty + l2_dcm*...
  std::uint64_t ipc_x16 = 32;  // IPC = 2.0 in 1/16 units
  std::uint64_t l1_penalty_cycles = 12;
  std::uint64_t l2_penalty_cycles = 60;
  /// Network model (cycles charged on the initiating PE; these dominate
  /// T_COMM exactly as the real interconnect does — paper Fig. 12/13):
  std::uint64_t net_local_flush_cycles = 350;       // shmem_ptr memcpy path
  std::uint64_t net_put_fixed_cycles = 1400;        // putmem_nbi injection
  std::uint64_t net_put_cycles_per_byte_x16 = 8;    // bytes/2 cycles
  std::uint64_t net_quiet_fixed_cycles = 2600;      // fabric round trip
  std::uint64_t net_quiet_cycles_per_put = 900;     // completion per put
  std::uint64_t net_signal_put_cycles = 700;        // 8-byte signal
  /// One conveyor progress round (advance): polling rings, checking acks.
  /// This is what makes *waiting* visible — a PE stalled on a straggler
  /// keeps polling, accruing COMM cycles, exactly like the idle time the
  /// paper's rdtsc measurements capture on a real cluster.
  std::uint64_t net_poll_cycles = 150;
};

const CostModel& cost_model();
/// Replace the model (tests/ablation); affects subsequent accounting only.
/// The charges' fixed parts and divisors are derived here, once. Throws
/// std::invalid_argument for a zero `ins_per_payload_byte_den`, which
/// every message charge would divide by.
void set_cost_model(const CostModel& m);

/// Exact division by a divisor fixed at construction: divide(n) == n / d
/// for every 64-bit n. A hardware divide by a run-time divisor costs tens of
/// cycles; this is a multiply-high and a shift (Granlund & Montgomery's
/// round-up method, with the 65-bit "add" fix-up where the magic number
/// needs it). The cost model divides every charge by two of its fields.
class Reciprocal {
 public:
  /// Divides by 1.
  constexpr Reciprocal() = default;
  /// `d` must be non-zero.
  constexpr explicit Reciprocal(std::uint64_t d) {
    const int log2_d = 63 - __builtin_clzll(d);
    shift_ = log2_d;
    if ((d & (d - 1)) == 0) return;  // a power of two is a plain shift
    const U128 power = U128{1} << (64 + log2_d);
    auto m = static_cast<std::uint64_t>(power / d);  // < 2^64: d > 2^log2_d
    const auto rem = static_cast<std::uint64_t>(power % d);
    if (d - rem >= (std::uint64_t{1} << log2_d)) {
      // ceil(2^(64+log2_d) / d) is not exact for every n: use the next
      // power's 65-bit magic, whose top bit divide() adds back.
      m += m;
      const std::uint64_t twice_rem = rem + rem;
      if (twice_rem >= d || twice_rem < rem) ++m;
      add_ = true;
    }
    magic_ = m + 1;
  }

  [[nodiscard]] constexpr std::uint64_t divide(std::uint64_t n) const {
    if (magic_ == 0) return n >> shift_;
    const auto q = static_cast<std::uint64_t>((U128{n} * magic_) >> 64);
    if (!add_) return q >> shift_;
    return (((n - q) >> 1) + q) >> shift_;
  }

 private:
  using U128 = unsigned __int128;
  std::uint64_t magic_ = 0;  // 0: d is a power of two
  int shift_ = 0;
  bool add_ = false;
};

/// What one message of `bytes` payload adds to the counters under the
/// model in force: `construct` when it is marshalled and appended to a
/// mailbox, `handle` when user code handles it. A Selector derives them
/// once, in start(), for its message size; a model is only set outside a
/// launch, so they stay exact for the whole launch.
struct MessageCharges {
  Counters construct{};
  Counters handle{};
};
MessageCharges message_charges(std::size_t bytes);
/// `n` charges of `increment` (a MessageCharges member) on the current PE
/// in one call: exactly n single charges, so the runtime's batch-drain
/// path lands the counters one call per message would.
void account_n(const Counters& increment, std::uint64_t n);
/// Bulk memcpy of `bytes` (buffer aggregation and delivery).
void account_buffer_copy(std::size_t bytes);
/// `n` iterations of scalar loop work.
void account_loop_iters(std::uint64_t n);
/// `n` data-dependent accesses into a structure of `footprint` bytes
/// (models cache behaviour of irregular access).
void account_random_access(std::size_t footprint, std::uint64_t n);
/// Intra-node buffer flush of `bytes` through shmem_ptr (local_send).
void account_local_flush(std::size_t bytes);
/// Inter-node shmem_putmem_nbi of `bytes` (nonblock_send).
void account_remote_put(std::size_t bytes);
/// shmem_quiet completing `outstanding_puts` non-blocking puts.
void account_quiet(std::size_t outstanding_puts);
/// An 8-byte signal/ack put.
void account_signal_put();
/// One conveyor progress/poll round (advance call).
void account_poll();

/// Virtual-time synchronization (virtual cycle source only; no-op under
/// rdtsc). Sets the calling PE's TOT_CYC to the maximum across all PEs:
/// a PE that polls while a straggler works "spends" that time waiting, so
/// its overall profile accrues the wait in whatever region it polls from
/// (COMM) — exactly how wall-clock rdtsc behaves on a real cluster where
/// every PE leaves the epoch together.
void sync_virtual_clock();

/// Threads-backend fleet clock: when on, sync_virtual_clock() maxes
/// through a process-global cell shared by all worker threads instead of
/// (only) the calling thread's local PEs. Toggled by shmem::run around a
/// threads-backend launch; off means the historical fiber behaviour.
void set_shared_clock(bool on);

/// Current PE's raw counter (monotone within a launch).
std::uint64_t counter_value(Event e);
/// Every raw counter of the current PE from one lookup, for a reader that
/// needs several (the clock and the recorded PAPI events). Read it before
/// the next papi call: a PE's first charge may move the table.
const Counters& counters();
/// Zero every counter of every PE (between runs).
void reset_all();

/// Hardware limit the paper calls out: at most four concurrently recorded
/// events. It sizes Config::papi_events and the PAPI trace's counter
/// columns.
inline constexpr int kMaxEventsPerSet = 4;

}  // namespace ap::papi
