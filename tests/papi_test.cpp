// Tests for sim-PAPI: event naming, the cost model, per-PE isolation, and
// the counter deltas the profiler takes around its segments.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "papi/cycles.hpp"
#include "papi/papi.hpp"
#include "runtime/scheduler.hpp"

namespace {

namespace papi = ap::papi;
using papi::Event;

class PapiTest : public ::testing::Test {
 protected:
  void SetUp() override { papi::reset_all(); }
  void TearDown() override { papi::reset_all(); }
};

/// One message construct / handle of `bytes` payload on the current PE,
/// charged as a Selector charges it.
void account_message_construct(std::size_t bytes) {
  papi::account_n(papi::message_charges(bytes).construct, 1);
}
void account_message_handle(std::size_t bytes) {
  papi::account_n(papi::message_charges(bytes).handle, 1);
}

TEST_F(PapiTest, NamesAreCanonicalAndDistinct) {
  std::set<std::string_view> seen;
  for (int i = 0; i < papi::kNumEvents; ++i) {
    const std::string_view n = papi::name(static_cast<Event>(i));
    EXPECT_TRUE(n.starts_with("PAPI_")) << n;
    EXPECT_NE(n, "PAPI_UNKNOWN");
    EXPECT_TRUE(seen.insert(n).second) << n;
  }
  EXPECT_EQ(papi::name(Event::TOT_INS), "PAPI_TOT_INS");
  EXPECT_EQ(papi::name(Event::kCount), "PAPI_UNKNOWN");
}

TEST_F(PapiTest, AccountRawCounter) {
  EXPECT_EQ(papi::counter_value(Event::TOT_INS), 0u);
  papi::account_loop_iters(25);  // 4 instructions and 1 load per iteration
  EXPECT_EQ(papi::counter_value(Event::TOT_INS), 100u);
  EXPECT_EQ(papi::counter_value(Event::LD_INS), 25u);
  EXPECT_EQ(papi::counters()[static_cast<std::size_t>(Event::TOT_INS)], 100u);
}

TEST_F(PapiTest, MessageConstructChargesInstructionsAndStores) {
  account_message_construct(8);
  EXPECT_GT(papi::counter_value(Event::TOT_INS), 0u);
  EXPECT_GT(papi::counter_value(Event::SR_INS), 0u);
  EXPECT_EQ(papi::counter_value(Event::LST_INS),
            papi::counter_value(Event::LD_INS) +
                papi::counter_value(Event::SR_INS));
}

TEST_F(PapiTest, CostIsLinearInMessageCount) {
  account_message_construct(8);
  const auto one = papi::counter_value(Event::TOT_INS);
  for (int i = 0; i < 9; ++i) account_message_construct(8);
  EXPECT_EQ(papi::counter_value(Event::TOT_INS), 10 * one);
}

TEST_F(PapiTest, BiggerPayloadCostsMore) {
  account_message_construct(8);
  const auto small = papi::counter_value(Event::TOT_INS);
  papi::reset_all();
  account_message_construct(256);
  EXPECT_GT(papi::counter_value(Event::TOT_INS), small);
}

TEST_F(PapiTest, RandomAccessMissesDependOnFootprint) {
  papi::account_random_access(16 * 1024, 1000);  // fits in L1
  EXPECT_EQ(papi::counter_value(Event::L1_DCM), 0u);
  papi::account_random_access(64 * 1024, 1000);  // beyond L1
  EXPECT_GT(papi::counter_value(Event::L1_DCM), 0u);
  EXPECT_EQ(papi::counter_value(Event::L2_DCM), 0u);
  papi::account_random_access(16u << 20, 1000);  // beyond L2
  EXPECT_GT(papi::counter_value(Event::L2_DCM), 0u);
}

TEST_F(PapiTest, CyclesGrowWithWork) {
  const auto c0 = papi::counter_value(Event::TOT_CYC);
  account_message_handle(8);
  EXPECT_GT(papi::counter_value(Event::TOT_CYC), c0);
}

TEST_F(PapiTest, CostModelIsConfigurable) {
  papi::CostModel m;
  m.ins_per_message_construct = 1000;
  papi::set_cost_model(m);
  account_message_construct(0);
  EXPECT_GE(papi::counter_value(Event::TOT_INS), 1000u);
  papi::set_cost_model(papi::CostModel{});
}

TEST_F(PapiTest, CountersArePerPe) {
  ap::rt::LaunchConfig cfg;
  cfg.num_pes = 4;
  std::vector<std::uint64_t> per_pe(4);
  ap::rt::launch(cfg, [&per_pe] {
    const int me = ap::rt::my_pe();
    for (int i = 0; i <= me; ++i) account_message_construct(8);
    per_pe[static_cast<std::size_t>(me)] =
        papi::counter_value(Event::TOT_INS);
  });
  EXPECT_GT(per_pe[0], 0u);
  for (int i = 1; i < 4; ++i)
    EXPECT_EQ(per_pe[static_cast<std::size_t>(i)],
              per_pe[0] * static_cast<std::uint64_t>(i + 1));
}

// ------------------------------------------------------- counter deltas
// The profiler reads counters() at segment boundaries and records the
// difference, without starting or stopping anything.

/// `e`'s count now minus its count in `before`.
std::uint64_t delta(const papi::Counters& before, Event e) {
  const auto i = static_cast<std::size_t>(e);
  return papi::counters()[i] - before[i];
}

TEST_F(PapiTest, StartStopDeltaExcludesOutsideWork) {
  account_message_construct(8);  // before the segment opens
  const papi::Counters open = papi::counters();
  EXPECT_EQ(delta(open, Event::TOT_INS), 0u);  // nothing happened inside
  account_message_construct(8);
  const papi::Counters close = papi::counters();
  account_message_construct(8);  // after the segment closed
  const auto i = static_cast<std::size_t>(Event::TOT_INS);
  EXPECT_EQ(close[i] - open[i], open[i]);  // exactly the one charge inside
}

TEST_F(PapiTest, ReadWithoutStopping) {
  const papi::Counters open = papi::counters();
  papi::account_loop_iters(5);
  EXPECT_EQ(delta(open, Event::LD_INS), 5u);
  papi::account_loop_iters(5);
  EXPECT_EQ(delta(open, Event::LD_INS), 10u);
}

TEST_F(PapiTest, ResetZeroesRunningDelta) {
  papi::account_loop_iters(7);
  papi::reset_all();
  EXPECT_EQ(papi::counters(), papi::Counters{});
  const papi::Counters open = papi::counters();
  papi::account_loop_iters(7);
  EXPECT_EQ(delta(open, Event::LD_INS), 7u);
}

// A delta across a yield counts only the reading PE's work.
TEST_F(PapiTest, EventSetsArePerPe) {
  ap::rt::LaunchConfig cfg;
  cfg.num_pes = 2;
  ap::rt::launch(cfg, [] {
    const papi::Counters open = papi::counters();
    // Each PE does a different amount of work.
    for (int i = 0; i <= ap::rt::my_pe(); ++i) papi::account_loop_iters(10);
    ap::rt::yield();  // interleave with the other PE
    EXPECT_EQ(delta(open, Event::LD_INS),
              10u * static_cast<std::uint64_t>(ap::rt::my_pe() + 1));
  });
}

// ------------------------------------------------------------- cycles

TEST_F(PapiTest, VirtualCyclesAreDeterministic) {
  papi::set_cycle_source(papi::CycleSource::virtual_);
  const auto a0 = papi::cycles_now();
  account_message_construct(8);
  const auto a1 = papi::cycles_now();
  EXPECT_GT(a1, a0);
  papi::reset_all();
  const auto b0 = papi::cycles_now();
  account_message_construct(8);
  const auto b1 = papi::cycles_now();
  EXPECT_EQ(a1 - a0, b1 - b0);
}

TEST_F(PapiTest, RdtscAdvances) {
  papi::set_cycle_source(papi::CycleSource::rdtsc);
  const auto t0 = papi::cycles_now();
  volatile int sink = 0;
  for (int i = 0; i < 10000; ++i) sink = sink + i;
  const auto t1 = papi::cycles_now();
  EXPECT_GT(t1, t0);
  papi::set_cycle_source(papi::CycleSource::virtual_);
}

}  // namespace

TEST_F(PapiTest, SingleAccessMissesAccumulateViaResidue) {
  // 1024 one-access calls over an L1-exceeding footprint must produce
  // ~600 misses (rate 600/1024), not zero (per-call truncation bug).
  for (int i = 0; i < 1024; ++i) papi::account_random_access(64 * 1024, 1);
  const auto misses = papi::counter_value(Event::L1_DCM);
  EXPECT_GE(misses, 599u);
  EXPECT_LE(misses, 601u);
}

// --------------------------------------------- precomputed charge divisors

namespace {

std::uint64_t splitmix(std::uint64_t& s) {
  std::uint64_t z = (s += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

void expect_divides_like_slash(std::uint64_t d, std::uint64_t& rng) {
  const papi::Reciprocal r(d);
  constexpr std::uint64_t kMax = ~std::uint64_t{0};
  const std::uint64_t edges[] = {0,         1,          d - 1,      d,
                                 d + 1,     2 * d - 1,  2 * d,      kMax,
                                 kMax - 1,  kMax / d * d, kMax / d * d - 1,
                                 kMax / 2,  kMax / 2 + 1, d * d,
                                 std::uint64_t{1} << 32,
                                 (std::uint64_t{1} << 32) - 1};
  for (const std::uint64_t n : edges)
    ASSERT_EQ(r.divide(n), n / d) << n << " / " << d;
  for (int i = 0; i < 64; ++i) {
    const std::uint64_t n = splitmix(rng) >> (i % 64);
    ASSERT_EQ(r.divide(n), n / d) << n << " / " << d;
  }
}

}  // namespace

TEST(Reciprocal, EqualsDivisionForEveryDivisorUpTo4096) {
  std::uint64_t rng = 1;
  for (std::uint64_t d = 1; d <= 4096; ++d) {
    SCOPED_TRACE(d);
    expect_divides_like_slash(d, rng);
  }
}

TEST(Reciprocal, EqualsDivisionForLargeDivisors) {
  std::uint64_t rng = 2;
  for (int k = 12; k < 64; ++k) {
    const std::uint64_t p = std::uint64_t{1} << k;
    for (const std::uint64_t d : {p - 1, p, p + 1, p | (p >> 1)})
      expect_divides_like_slash(d, rng);
  }
  expect_divides_like_slash(~std::uint64_t{0}, rng);
  for (int i = 0; i < 512; ++i) {
    const std::uint64_t d = splitmix(rng) >> (i % 60);
    if (d != 0) expect_divides_like_slash(d, rng);
  }
}

namespace {

/// The charge formulas with the divisions written out, as the cost model
/// defined them before its divisors became reciprocals.
papi::Counters slash_charge(const papi::CostModel& m, std::uint64_t n,
                            std::uint64_t ins, std::uint64_t loads,
                            std::uint64_t stores, std::uint64_t branches,
                            std::uint64_t l1, std::uint64_t l2,
                            std::uint64_t extra_cycles) {
  papi::Counters c{};
  const auto at = [&c](Event e) -> std::uint64_t& {
    return c[static_cast<std::size_t>(e)];
  };
  at(Event::TOT_INS) = n * ins;
  at(Event::LD_INS) = n * loads;
  at(Event::SR_INS) = n * stores;
  at(Event::LST_INS) = n * (loads + stores);
  at(Event::BR_INS) = n * branches;
  at(Event::BR_MSP) = n * (branches * m.br_msp_per_1024 / 1024);
  at(Event::L1_DCM) = n * l1;
  at(Event::L2_DCM) = n * l2;
  const std::uint64_t cyc = ins * 16 / (m.ipc_x16 == 0 ? 16 : m.ipc_x16) +
                            l1 * m.l1_penalty_cycles +
                            l2 * m.l2_penalty_cycles;
  at(Event::TOT_CYC) = n * cyc + extra_cycles;
  return c;
}

/// What `charge()` added to the current PE's counters.
template <class Fn>
papi::Counters delta_of(Fn&& charge) {
  const papi::Counters before = papi::counters();
  charge();
  papi::Counters d = papi::counters();
  for (std::size_t i = 0; i < d.size(); ++i) d[i] -= before[i];
  return d;
}

}  // namespace

TEST_F(PapiTest, PrecomputedChargesEqualTheDividingFormulas) {
  std::vector<papi::CostModel> models(1);  // the default
  {
    papi::CostModel m;
    m.ipc_x16 = 0;  // falls back to 16
    models.push_back(m);
  }
  for (const std::uint64_t ipc : {1u, 3u, 7u, 24u, 48u, 1000u}) {
    papi::CostModel m;
    m.ipc_x16 = ipc;
    m.ins_per_payload_byte_num = ipc % 5 + 1;
    m.ins_per_payload_byte_den = ipc % 7 + 2;
    m.net_poll_cycles = 100 + ipc;
    m.net_put_cycles_per_byte_x16 = ipc;
    m.br_msp_per_1024 = 3 * ipc;
    models.push_back(m);
  }
  // Every payload size a message can have up to 64 bytes, a few larger.
  std::vector<std::size_t> message_bytes;
  for (std::size_t bytes = 0; bytes <= 64; ++bytes)
    message_bytes.push_back(bytes);
  for (std::size_t bytes = 65; bytes <= 520; bytes += 13)
    message_bytes.push_back(bytes);
  message_bytes.push_back(4096);
  for (const papi::CostModel& m : models) {
    SCOPED_TRACE(m.ipc_x16);
    papi::set_cost_model(m);
    for (const std::size_t bytes : message_bytes) {
      const papi::MessageCharges charges = papi::message_charges(bytes);
      for (const std::uint64_t n : {1u, 2u, 37u}) {
        const std::uint64_t payload =
            bytes * m.ins_per_payload_byte_num / m.ins_per_payload_byte_den;
        EXPECT_EQ(delta_of([&] { papi::account_n(charges.construct, n); }),
                  slash_charge(m, n, m.ins_per_message_construct + payload,
                               2 + bytes / 16, 3 + bytes / 8,
                               m.branches_per_message, 0, 0, 0));
        EXPECT_EQ(delta_of([&] { papi::account_n(charges.handle, n); }),
                  slash_charge(m, n, m.ins_per_message_handle + payload,
                               3 + bytes / 8, 1 + bytes / 16,
                               m.branches_per_message, 0, 0, 0));
      }
    }
    for (std::size_t bytes = 0; bytes <= 520; bytes += 13) {
      const std::uint64_t ops = bytes / 16 + 1;
      EXPECT_EQ(delta_of([&] { papi::account_buffer_copy(bytes); }),
                slash_charge(m, 1, 2 * ops, ops, ops, 2, bytes / 256, 0, 0));
      EXPECT_EQ(delta_of([&] { papi::account_loop_iters(bytes); }),
                slash_charge(m, 1, 4 * bytes, bytes, 0, bytes, 0, 0, 0));
      EXPECT_EQ(delta_of([&] { papi::account_random_access(64, bytes); }),
                slash_charge(m, 1, 2 * bytes, bytes, 0, bytes, 0, 0, 0));
      EXPECT_EQ(delta_of([&] { papi::account_local_flush(bytes); }),
                slash_charge(m, 1, 20, 4, 4, 4, 0, 0,
                             m.net_local_flush_cycles));
      EXPECT_EQ(delta_of([&] { papi::account_remote_put(bytes); }),
                slash_charge(m, 1, 40, 6, 6, 6, 1, 0,
                             m.net_put_fixed_cycles +
                                 bytes * m.net_put_cycles_per_byte_x16 / 16));
      EXPECT_EQ(delta_of([&] { papi::account_quiet(bytes); }),
                slash_charge(m, 1, 30, 4, 2, 6, 0, 0,
                             m.net_quiet_fixed_cycles +
                                 bytes * m.net_quiet_cycles_per_put));
    }
    EXPECT_EQ(delta_of([] { papi::account_signal_put(); }),
              slash_charge(m, 1, 15, 2, 2, 2, 0, 0, m.net_signal_put_cycles));
    EXPECT_EQ(delta_of([] { papi::account_poll(); }),
              slash_charge(m, 1, 12, 4, 0, 4, 0, 0, m.net_poll_cycles));
  }

  // One access per call (a handler probe) lands a derived increment plus
  // the misses it completes; the sub-miss residues carry across calls.
  papi::CostModel tuned;
  tuned.ipc_x16 = 24;
  tuned.br_msp_per_1024 = 1100;  // above 1024: one access rounds to a miss
  tuned.l1_miss_per_1024_beyond_l1 = 333;
  tuned.l2_miss_per_1024_beyond_l2 = 1500;
  tuned.l1_penalty_cycles = 9;
  tuned.l2_penalty_cycles = 71;
  // Both residues are still 0: every access above stayed inside L1.
  std::uint64_t l1_residue = 0, l2_residue = 0;
  for (const papi::CostModel& m : {papi::CostModel{}, tuned}) {
    SCOPED_TRACE(m.ipc_x16);
    papi::set_cost_model(m);
    const std::size_t footprints[] = {m.l1_bytes / 2, m.l1_bytes + 1,
                                      m.l2_bytes, m.l2_bytes + 1,
                                      4 * m.l2_bytes};
    for (const std::size_t footprint : footprints) {
      SCOPED_TRACE(footprint);
      for (int call = 0; call < 1000; ++call) {
        std::uint64_t l1 = 0, l2 = 0;
        if (footprint > m.l1_bytes) {
          l1_residue += m.l1_miss_per_1024_beyond_l1;
          l1 = l1_residue / 1024;
          l1_residue %= 1024;
        }
        if (footprint > m.l2_bytes) {
          l2_residue += m.l2_miss_per_1024_beyond_l2;
          l2 = l2_residue / 1024;
          l2_residue %= 1024;
        }
        EXPECT_EQ(delta_of([&] { papi::account_random_access(footprint, 1); }),
                  slash_charge(m, 1, 2, 1, 0, 1, l1, l2, 0))
            << "call " << call;
      }
    }
  }
  papi::set_cost_model(papi::CostModel{});
}

TEST_F(PapiTest, ZeroPayloadDenominatorIsRejected) {
  papi::CostModel m;
  m.ins_per_payload_byte_den = 0;
  EXPECT_THROW(papi::set_cost_model(m), std::invalid_argument);
  // The model in force is unchanged.
  EXPECT_EQ(papi::cost_model().ins_per_payload_byte_den,
            papi::CostModel{}.ins_per_payload_byte_den);
}
