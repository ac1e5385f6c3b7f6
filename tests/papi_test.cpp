// Tests for sim-PAPI: event naming, the cost model, per-PE isolation, and
// the PAPI-compatible event-set API (including the 4-event limit).
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
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

TEST_F(PapiTest, NamesRoundTrip) {
  for (int i = 0; i < papi::kNumEvents; ++i) {
    const Event e = static_cast<Event>(i);
    const auto parsed = papi::parse(papi::name(e));
    ASSERT_TRUE(parsed.has_value()) << papi::name(e);
    EXPECT_EQ(*parsed, e);
  }
  EXPECT_FALSE(papi::parse("PAPI_NOPE").has_value());
  EXPECT_EQ(papi::name(Event::TOT_INS), "PAPI_TOT_INS");
}

TEST_F(PapiTest, AccountRawCounter) {
  EXPECT_EQ(papi::counter_value(Event::TOT_INS), 0u);
  papi::account(Event::TOT_INS, 100);
  EXPECT_EQ(papi::counter_value(Event::TOT_INS), 100u);
}

TEST_F(PapiTest, MessageConstructChargesInstructionsAndStores) {
  papi::account_message_construct(8);
  EXPECT_GT(papi::counter_value(Event::TOT_INS), 0u);
  EXPECT_GT(papi::counter_value(Event::SR_INS), 0u);
  EXPECT_EQ(papi::counter_value(Event::LST_INS),
            papi::counter_value(Event::LD_INS) +
                papi::counter_value(Event::SR_INS));
}

TEST_F(PapiTest, CostIsLinearInMessageCount) {
  papi::account_message_construct(8);
  const auto one = papi::counter_value(Event::TOT_INS);
  for (int i = 0; i < 9; ++i) papi::account_message_construct(8);
  EXPECT_EQ(papi::counter_value(Event::TOT_INS), 10 * one);
}

TEST_F(PapiTest, BiggerPayloadCostsMore) {
  papi::account_message_construct(8);
  const auto small = papi::counter_value(Event::TOT_INS);
  papi::reset_all();
  papi::account_message_construct(256);
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
  papi::account_message_handle(8);
  EXPECT_GT(papi::counter_value(Event::TOT_CYC), c0);
}

TEST_F(PapiTest, CostModelIsConfigurable) {
  papi::CostModel m;
  m.ins_per_message_construct = 1000;
  papi::set_cost_model(m);
  papi::account_message_construct(0);
  EXPECT_GE(papi::counter_value(Event::TOT_INS), 1000u);
  papi::set_cost_model(papi::CostModel{});
}

TEST_F(PapiTest, CountersArePerPe) {
  ap::rt::LaunchConfig cfg;
  cfg.num_pes = 4;
  std::vector<std::uint64_t> per_pe(4);
  ap::rt::launch(cfg, [&per_pe] {
    const int me = ap::rt::my_pe();
    for (int i = 0; i <= me; ++i) papi::account_message_construct(8);
    per_pe[static_cast<std::size_t>(me)] =
        papi::counter_value(Event::TOT_INS);
  });
  EXPECT_GT(per_pe[0], 0u);
  for (int i = 1; i < 4; ++i)
    EXPECT_EQ(per_pe[static_cast<std::size_t>(i)],
              per_pe[0] * static_cast<std::uint64_t>(i + 1));
}

// ----------------------------------------------------------- event sets

TEST_F(PapiTest, EventSetLifecycle) {
  EXPECT_EQ(papi::library_init(), papi::PAPI_OK);
  int set = -1;
  ASSERT_EQ(papi::create_eventset(&set), papi::PAPI_OK);
  EXPECT_EQ(papi::add_event(set, Event::TOT_INS), papi::PAPI_OK);
  EXPECT_EQ(papi::add_event(set, Event::LST_INS), papi::PAPI_OK);
  EXPECT_EQ(papi::num_events(set), 2);
  ASSERT_EQ(papi::start(set), papi::PAPI_OK);
  papi::account_message_construct(8);
  long long vals[2] = {};
  ASSERT_EQ(papi::stop(set, vals), papi::PAPI_OK);
  EXPECT_GT(vals[0], 0);
  EXPECT_GT(vals[1], 0);
  EXPECT_EQ(papi::destroy_eventset(&set), papi::PAPI_OK);
  EXPECT_EQ(set, -1);
}

TEST_F(PapiTest, StartStopDeltaExcludesOutsideWork) {
  papi::account_message_construct(8);  // before counting
  int set = -1;
  ASSERT_EQ(papi::create_eventset(&set), papi::PAPI_OK);
  ASSERT_EQ(papi::add_event(set, Event::TOT_INS), papi::PAPI_OK);
  ASSERT_EQ(papi::start(set), papi::PAPI_OK);
  long long vals[1] = {};
  ASSERT_EQ(papi::stop(set, vals), papi::PAPI_OK);
  EXPECT_EQ(vals[0], 0);  // nothing happened while counting
  ASSERT_EQ(papi::destroy_eventset(&set), papi::PAPI_OK);
}

TEST_F(PapiTest, ReadWithoutStopping) {
  int set = -1;
  ASSERT_EQ(papi::create_eventset(&set), papi::PAPI_OK);
  ASSERT_EQ(papi::add_event(set, Event::TOT_INS), papi::PAPI_OK);
  ASSERT_EQ(papi::start(set), papi::PAPI_OK);
  papi::account(Event::TOT_INS, 5);
  long long v = 0;
  ASSERT_EQ(papi::read(set, &v), papi::PAPI_OK);
  EXPECT_EQ(v, 5);
  papi::account(Event::TOT_INS, 5);
  ASSERT_EQ(papi::read(set, &v), papi::PAPI_OK);
  EXPECT_EQ(v, 10);
  ASSERT_EQ(papi::stop(set, &v), papi::PAPI_OK);
  EXPECT_EQ(v, 10);
  ASSERT_EQ(papi::destroy_eventset(&set), papi::PAPI_OK);
}

TEST_F(PapiTest, ResetZeroesRunningDelta) {
  int set = -1;
  ASSERT_EQ(papi::create_eventset(&set), papi::PAPI_OK);
  ASSERT_EQ(papi::add_event(set, Event::TOT_INS), papi::PAPI_OK);
  ASSERT_EQ(papi::start(set), papi::PAPI_OK);
  papi::account(Event::TOT_INS, 7);
  ASSERT_EQ(papi::reset(set), papi::PAPI_OK);
  long long v = -1;
  ASSERT_EQ(papi::read(set, &v), papi::PAPI_OK);
  EXPECT_EQ(v, 0);
  ASSERT_EQ(papi::stop(set, &v), papi::PAPI_OK);
  ASSERT_EQ(papi::destroy_eventset(&set), papi::PAPI_OK);
}

TEST_F(PapiTest, FourEventLimitEnforced) {
  int set = -1;
  ASSERT_EQ(papi::create_eventset(&set), papi::PAPI_OK);
  EXPECT_EQ(papi::add_event(set, Event::TOT_INS), papi::PAPI_OK);
  EXPECT_EQ(papi::add_event(set, Event::LST_INS), papi::PAPI_OK);
  EXPECT_EQ(papi::add_event(set, Event::L1_DCM), papi::PAPI_OK);
  EXPECT_EQ(papi::add_event(set, Event::BR_MSP), papi::PAPI_OK);
  // The fifth concurrent event is what real PAPI hardware refuses.
  EXPECT_EQ(papi::add_event(set, Event::TOT_CYC), papi::PAPI_ECNFLCT);
  ASSERT_EQ(papi::destroy_eventset(&set), papi::PAPI_OK);
}

TEST_F(PapiTest, FourEventLimitSpansSets) {
  int s1 = -1, s2 = -1;
  ASSERT_EQ(papi::create_eventset(&s1), papi::PAPI_OK);
  ASSERT_EQ(papi::create_eventset(&s2), papi::PAPI_OK);
  for (Event e : {Event::TOT_INS, Event::LST_INS, Event::L1_DCM})
    ASSERT_EQ(papi::add_event(s1, e), papi::PAPI_OK);
  for (Event e : {Event::BR_MSP, Event::TOT_CYC})
    ASSERT_EQ(papi::add_event(s2, e), papi::PAPI_OK);
  ASSERT_EQ(papi::start(s1), papi::PAPI_OK);
  EXPECT_EQ(papi::start(s2), papi::PAPI_ECNFLCT);  // 3 + 2 > 4
  long long vals[4];
  ASSERT_EQ(papi::stop(s1, vals), papi::PAPI_OK);
  EXPECT_EQ(papi::start(s2), papi::PAPI_OK);  // fine once s1 stopped
  ASSERT_EQ(papi::stop(s2, vals), papi::PAPI_OK);
  papi::destroy_eventset(&s1);
  papi::destroy_eventset(&s2);
}

TEST_F(PapiTest, ApiMisuseReturnsErrors) {
  EXPECT_EQ(papi::create_eventset(nullptr), papi::PAPI_EINVAL);
  EXPECT_EQ(papi::add_event(99, Event::TOT_INS), papi::PAPI_EINVAL);
  EXPECT_EQ(papi::start(99), papi::PAPI_EINVAL);
  int set = -1;
  ASSERT_EQ(papi::create_eventset(&set), papi::PAPI_OK);
  long long v;
  EXPECT_EQ(papi::stop(set, &v), papi::PAPI_ENOTRUN);
  ASSERT_EQ(papi::add_event(set, Event::TOT_INS), papi::PAPI_OK);
  EXPECT_EQ(papi::add_event(set, Event::TOT_INS), papi::PAPI_ECNFLCT);
  ASSERT_EQ(papi::start(set), papi::PAPI_OK);
  EXPECT_EQ(papi::start(set), papi::PAPI_EISRUN);
  EXPECT_EQ(papi::add_event(set, Event::LST_INS), papi::PAPI_EISRUN);
  EXPECT_EQ(papi::destroy_eventset(&set), papi::PAPI_EISRUN);
  ASSERT_EQ(papi::stop(set, &v), papi::PAPI_OK);
  ASSERT_EQ(papi::destroy_eventset(&set), papi::PAPI_OK);
  EXPECT_EQ(papi::destroy_eventset(&set), papi::PAPI_EINVAL);
}

TEST_F(PapiTest, ScopedCountingGuard) {
  {
    papi::ScopedCounting guard{Event::TOT_INS, Event::SR_INS};
    papi::account_message_construct(8);
    const auto vals = guard.values();
    EXPECT_GT(vals[0], 0);
    EXPECT_GT(vals[1], 0);
  }
  // Guard released its slots: four new events may start.
  papi::ScopedCounting guard{Event::TOT_INS, Event::LST_INS, Event::L1_DCM,
                             Event::BR_MSP};
}

TEST_F(PapiTest, EventSetsArePerPe) {
  ap::rt::LaunchConfig cfg;
  cfg.num_pes = 2;
  ap::rt::launch(cfg, [] {
    int set = -1;
    ASSERT_EQ(papi::create_eventset(&set), papi::PAPI_OK);
    ASSERT_EQ(papi::add_event(set, Event::TOT_INS), papi::PAPI_OK);
    ASSERT_EQ(papi::start(set), papi::PAPI_OK);
    // Each PE does a different amount of work.
    for (int i = 0; i <= ap::rt::my_pe(); ++i) papi::account(Event::TOT_INS, 10);
    ap::rt::yield();  // interleave with the other PE
    long long v = 0;
    ASSERT_EQ(papi::stop(set, &v), papi::PAPI_OK);
    EXPECT_EQ(v, 10 * (ap::rt::my_pe() + 1));
    papi::destroy_eventset(&set);
  });
}

// ------------------------------------------------------------- cycles

TEST_F(PapiTest, VirtualCyclesAreDeterministic) {
  papi::set_cycle_source(papi::CycleSource::virtual_);
  const auto a0 = papi::cycles_now();
  papi::account_message_construct(8);
  const auto a1 = papi::cycles_now();
  EXPECT_GT(a1, a0);
  papi::reset_all();
  const auto b0 = papi::cycles_now();
  papi::account_message_construct(8);
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
  for (const papi::CostModel& m : models) {
    SCOPED_TRACE(m.ipc_x16);
    papi::set_cost_model(m);
    for (std::size_t bytes = 0; bytes <= 520; bytes += 13) {
      for (const std::uint64_t n : {1u, 2u, 37u}) {
        const std::uint64_t payload =
            bytes * m.ins_per_payload_byte_num / m.ins_per_payload_byte_den;
        EXPECT_EQ(delta_of([&] {
                    papi::account_message_construct_n(bytes, n);
                  }),
                  slash_charge(m, n, m.ins_per_message_construct + payload,
                               2 + bytes / 16, 3 + bytes / 8,
                               m.branches_per_message, 0, 0, 0));
        EXPECT_EQ(delta_of([&] { papi::account_message_handle_n(bytes, n); }),
                  slash_charge(m, n, m.ins_per_message_handle + payload,
                               3 + bytes / 8, 1 + bytes / 16,
                               m.branches_per_message, 0, 0, 0));
      }
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
