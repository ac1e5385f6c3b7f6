// Second-round edge cases across modules: extreme configurations, rare
// option combinations, and misuse paths not covered by the per-module
// suites.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <vector>

#include "actor/selector.hpp"
#include "conveyor/conveyor.hpp"
#include "core/profiler.hpp"
#include "core/trace_io.hpp"
#include "papi/cycles.hpp"
#include "papi/papi.hpp"
#include "runtime/finish.hpp"
#include "runtime/scheduler.hpp"
#include "shmem/shmem.hpp"

#if defined(__SANITIZE_ADDRESS__)
#define AP_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define AP_TEST_ASAN 1
#endif
#endif

namespace {

namespace shmem = ap::shmem;
namespace convey = ap::convey;
namespace actor = ap::actor;
namespace papi = ap::papi;

ap::rt::LaunchConfig cfg_of(int pes, int ppn = 0) {
  ap::rt::LaunchConfig cfg;
  cfg.num_pes = pes;
  cfg.pes_per_node = ppn;
  cfg.symm_heap_bytes = 8 << 20;
  return cfg;
}

// ----------------------------------------------------------------- runtime

TEST(EdgeRuntime, TwoHundredFiftySixPEs) {
  ap::rt::LaunchConfig cfg;
  cfg.num_pes = 256;
  cfg.stack_bytes = 64 * 1024;
  std::atomic<int> count{0};
  ap::rt::launch(cfg, [&count] {
    ap::rt::yield();
    count.fetch_add(1);
  });
  EXPECT_EQ(count.load(), 256);
}

TEST(EdgeRuntime, WaitUntilAlreadyTrueDoesNotYield) {
  ap::rt::LaunchConfig cfg;
  cfg.num_pes = 2;
  cfg.backend = ap::rt::Backend::fiber;  // asserts fiber round-robin order
  std::vector<int> order;
  ap::rt::launch(cfg, [&order] {
    ap::rt::wait_until([] { return true; });  // must not suspend
    order.push_back(ap::rt::my_pe());
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

TEST(EdgeRuntime, DeepRecursionInsideFiberStack) {
  ap::rt::LaunchConfig cfg;
  cfg.num_pes = 1;
#if defined(AP_TEST_ASAN)
  // ASan redzones inflate every frame several-fold; same depth, more room.
  cfg.stack_bytes = 8 << 20;
#else
  cfg.stack_bytes = 1 << 20;
#endif
  std::int64_t result = 0;
  ap::rt::launch(cfg, [&result] {
    // ~2000 frames of ~200 bytes: fine in 1 MiB, crashes if fibers
    // mismanage stacks.
    std::function<std::int64_t(int)> rec = [&rec](int d) -> std::int64_t {
      volatile char pad[128];
      pad[0] = static_cast<char>(d);
      return d == 0 ? pad[0] : rec(d - 1) + 1;
    };
    result = rec(2000);
  });
  EXPECT_EQ(result, 2000);
}

TEST(EdgeRuntime, FinishWithEmptyBodyAndNoTasks) {
  ap::rt::LaunchConfig cfg;
  cfg.num_pes = 3;
  ap::rt::launch(cfg, [] { ap::hclib::finish([] {}); });
}

// ------------------------------------------------------------------ shmem

TEST(EdgeShmem, SingleByteAndOddSizePuts) {
  shmem::run(cfg_of(2), [] {
    shmem::SymmArray<unsigned char> a(33);
    shmem::barrier_all();
    unsigned char src[33];
    for (int i = 0; i < 33; ++i) src[i] = static_cast<unsigned char>(i * 7);
    shmem::put(a.data(), src, 33, 1 - shmem::my_pe());
    shmem::barrier_all();
    for (int i = 0; i < 33; ++i)
      EXPECT_EQ(a[static_cast<std::size_t>(i)], static_cast<unsigned char>(i * 7));
  });
}

TEST(EdgeShmem, ZeroByteOpsAreNoops) {
  shmem::run(cfg_of(2), [] {
    shmem::SymmArray<long> a(1);
    shmem::barrier_all();
    shmem::put(&a[0], nullptr, 0, 1);        // must not touch translate(src)
    shmem::putmem_nbi(&a[0], nullptr, 0, 1);
    shmem::quiet();
    shmem::barrier_all();
    EXPECT_EQ(a[0], 0);
  });
}

TEST(EdgeShmem, InterleavedNbiStreamsToMultipleTargets) {
  shmem::run(cfg_of(4, 4), [] {
    shmem::SymmArray<std::int64_t> a(4);
    shmem::barrier_all();
    const int me = shmem::my_pe();
    std::int64_t vals[3];
    int idx = 0;
    for (int d = 0; d < 4; ++d) {
      if (d == me) continue;
      vals[idx] = 100 * me + d;
      shmem::putmem_nbi(&a[static_cast<std::size_t>(me)], &vals[idx], 8, d);
      ++idx;
    }
    shmem::quiet();
    shmem::barrier_all();
    for (int s = 0; s < 4; ++s) {
      if (s == me) continue;
      EXPECT_EQ(a[static_cast<std::size_t>(s)], 100 * s + me);
    }
  });
}

// --------------------------------------------------------------- conveyor

TEST(EdgeConveyor, SingleSlotRing) {
  shmem::run(cfg_of(4, 2), [] {
    convey::Options o;
    o.slots = 1;  // no double buffering: every remote flush needs progress
    o.buffer_bytes = 64;
    auto c = convey::Conveyor::create(o);
    std::size_t i = 0;
    std::int64_t got = 0;
    bool done = false;
    while (c->advance(done)) {
      for (; i < 300; ++i) {
        const std::int64_t v = 1;
        if (!c->push(&v, static_cast<int>(i % 4))) break;
      }
      c->drain([&got](const convey::Delivered& d) {
        std::int64_t item;
        std::memcpy(&item, d.payload, sizeof item);
        got += item;
      });
      done = (i == 300);
      ap::rt::yield();
    }
    EXPECT_EQ(shmem::sum_reduce(got), 4 * 300);
  });
}

TEST(EdgeConveyor, FourSlotRing) {
  shmem::run(cfg_of(4, 2), [] {
    convey::Options o;
    o.slots = 4;
    o.buffer_bytes = 48;
    auto c = convey::Conveyor::create(o);
    std::size_t i = 0;
    std::int64_t got = 0;
    bool done = false;
    while (c->advance(done)) {
      for (; i < 400; ++i) {
        const std::int64_t v = 1;
        if (!c->push(&v, static_cast<int>((i * 3) % 4))) break;
      }
      c->drain([&got](const convey::Delivered& d) {
        std::int64_t item;
        std::memcpy(&item, d.payload, sizeof item);
        got += item;
      });
      done = (i == 400);
      ap::rt::yield();
    }
    EXPECT_EQ(shmem::sum_reduce(got), 4 * 400);
  });
}

TEST(EdgeConveyor, ItemLargerThanPushStackBuffer) {
  // push() uses a 512-byte stack buffer and falls back to the heap for
  // larger records; exercise that path.
  shmem::run(cfg_of(2, 2), [] {
    struct Huge {
      std::int64_t a[80];  // 640 bytes
    };
    convey::Options o;
    o.item_bytes = sizeof(Huge);
    o.buffer_bytes = 2 * (sizeof(Huge) + 8);
    auto c = convey::Conveyor::create(o);
    std::size_t i = 0;
    std::int64_t checksum = 0;
    bool done = false;
    while (c->advance(done)) {
      for (; i < 20; ++i) {
        Huge h;
        for (int k = 0; k < 80; ++k) h.a[k] = static_cast<std::int64_t>(i);
        if (!c->push(&h, 1 - shmem::my_pe())) break;
      }
      c->drain([&checksum](const convey::Delivered& d) {
        Huge r;
        std::memcpy(&r, d.payload, sizeof r);
        for (int k = 1; k < 80; ++k) EXPECT_EQ(r.a[k], r.a[0]);
        checksum += r.a[0];
      });
      done = (i == 20);
      ap::rt::yield();
    }
    EXPECT_EQ(checksum, 19 * 20 / 2);
  });
}

TEST(EdgeConveyor, ImmediateDoneWithNoTraffic) {
  shmem::run(cfg_of(8, 4), [] {
    auto c = convey::Conveyor::create(convey::Options{});
    // Under threads a PE spins here until the workers running its peers
    // reach done, so the round count measures their timing: there only a
    // deadline that a hang alone can pass bounds the loop.
    const bool fiber = ap::rt::current_backend() == ap::rt::Backend::fiber;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    int rounds = 0;
    while (c->advance(true)) {
      ++rounds;
      ap::rt::yield();
      if (fiber) {
        ASSERT_LT(rounds, 10000);
      } else {
        ASSERT_TRUE(std::chrono::steady_clock::now() < deadline)
            << "no termination after " << rounds << " rounds";
      }
    }
    EXPECT_EQ(c->stats().pushed, 0u);
  });
}

// ------------------------------------------------------------------- papi

TEST(EdgePapi, CycleSourceSwitchRoundTrips) {
  const auto prev = papi::cycle_source();
  papi::set_cycle_source(papi::CycleSource::rdtsc);
  EXPECT_EQ(papi::cycle_source(), papi::CycleSource::rdtsc);
  papi::set_cycle_source(papi::CycleSource::virtual_);
  EXPECT_EQ(papi::cycle_source(), papi::CycleSource::virtual_);
  papi::set_cycle_source(prev);
}

TEST(EdgePapi, SyncVirtualClockIsNoopUnderRdtsc) {
  papi::reset_all();
  papi::set_cycle_source(papi::CycleSource::rdtsc);
  const auto before = papi::counter_value(papi::Event::TOT_CYC);
  papi::sync_virtual_clock();
  EXPECT_EQ(papi::counter_value(papi::Event::TOT_CYC), before);
  papi::set_cycle_source(papi::CycleSource::virtual_);
  papi::reset_all();
}

// --------------------------------------------------------------- trace_io

TEST(EdgeTraceIo, ToleratesCrLfAndPadding) {
  std::vector<ap::prof::LogicalSendRecord> recs;
  ap::prof::io::read_into(
      "# header\r\n 0 , 1 , 0 , 2 , 8 \r\n\r\n0,0,1,3,16\r\n", recs);
  ASSERT_EQ(recs.size(), 2u);
  EXPECT_EQ(recs[0].dst_pe, 2);
  EXPECT_EQ(recs[1].dst_node, 1);
  EXPECT_EQ(recs[1].msg_bytes, 16u);
}

TEST(EdgeTraceIo, OverallParserSkipsRelativeLines) {
  std::vector<ap::prof::OverallRecord> recs;
  ap::prof::io::parse_overall_into(
      "Relative [PE0] TCOMM_PROFILING (T_MAIN/T_TOTAL, T_COMM/T_TOTAL, "
      "T_PROC/T_TOTAL) = (0.1, 0.8, 0.1)\n"
      "Absolute [PE0] TCOMM_PROFILING (T_MAIN, T_COMM, T_PROC) = (10, 80, "
      "10)\n",
      recs);
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].t_total, 100u);
}

// A trace cut mid-row must never yield a wrong record: every writer ends
// each row with '\n', so an unterminated last line is a truncated row.
TEST(EdgeTraceIo, RowCutMidNumberThrowsAndKeepsThePrefix) {
  std::vector<ap::prof::LogicalSendRecord> recs;
  try {
    ap::prof::io::read_into("# h\n0,0,0,1,8\n0,0,0,3,1", recs);
    FAIL() << "a row cut mid-number must throw";
  } catch (const ap::prof::io::TraceParseError& e) {
    EXPECT_EQ(e.line_no(), 3u);
  }
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].msg_bytes, 8u);
}

TEST(EdgeTraceIo, PapiRowCutBeforeItsRegionIsRejected) {
  std::vector<ap::prof::PapiSegmentRecord> rows;
  EXPECT_THROW(ap::prof::io::read_into("0,1,0,2,8,0,42,1000,500", rows),
               ap::prof::io::TraceParseError);
  // Terminated but without MAIN/PROC: not a MAIN row either.
  EXPECT_THROW(ap::prof::io::read_into("0,1,0,2,8,0,42,1000,500\n", rows),
               ap::prof::io::TraceParseError);
  EXPECT_TRUE(rows.empty());
}

TEST(EdgeTraceIo, PapiRowWithSixCountersIsRejected) {
  std::vector<ap::prof::PapiSegmentRecord> rows;
  EXPECT_THROW(
      ap::prof::io::read_into("0,1,0,2,8,0,42,1,2,3,4,5,6,PROC\n", rows),
      ap::prof::io::TraceParseError);
  EXPECT_TRUE(rows.empty());
  // Zero to four counters parse, the region last.
  ap::prof::io::read_into("0,1,0,2,8,0,42,PROC\n0,1,0,2,8,0,42,1,2,3,4,MAIN\n",
                          rows);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_TRUE(rows[0].is_proc);
  EXPECT_EQ(rows[1].counters[3], 4u);
  EXPECT_FALSE(rows[1].is_proc);
}

TEST(EdgeTraceIo, PapiFieldsAfterTheRegionAreRejected) {
  std::vector<ap::prof::PapiSegmentRecord> rows;
  EXPECT_THROW(
      ap::prof::io::read_into("0,1,0,2,8,0,42,1000,MAIN,7\n", rows),
      ap::prof::io::TraceParseError);
  EXPECT_TRUE(rows.empty());
}

// ---------------------------------------------------------------- selector

TEST(EdgeSelector, ZeroMessagesTerminatesInstantly) {
  shmem::run(cfg_of(16, 8), [] {
    actor::Actor<std::int64_t> a;
    a.mb[0].process = [](std::int64_t, int) { FAIL() << "no messages sent"; };
    ap::hclib::finish([&] {
      a.start();
      a.done(0);
    });
    EXPECT_TRUE(a.terminated());
  });
}

TEST(EdgeSelector, ObserverRestoredAfterProfilerScope) {
  // The profiler must chain/restore whatever observer was installed.
  struct Noop : actor::ActorObserver {
    void on_send(int, int, std::size_t, std::uint64_t) override {}
    void on_handler_begin(int, int, std::size_t, std::uint64_t) override {}
    void on_handler_end(int) override {}
    void on_comm_begin() override {}
    void on_comm_end() override {}
  } noop;
  actor::set_actor_observer(&noop);
  {
    ap::prof::Profiler profiler;
    EXPECT_EQ(actor::actor_observer(), &profiler);
  }
  EXPECT_EQ(actor::actor_observer(), &noop);
  actor::set_actor_observer(nullptr);
}

}  // namespace
