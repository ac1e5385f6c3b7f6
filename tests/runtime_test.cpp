// Tests for the fiber runtime: fibers, the deterministic SPMD scheduler,
// collective-object registry, and mini-HClib finish.
#include <gtest/gtest.h>
#include <pthread.h>

#include <atomic>
#include <cfenv>
#include <csignal>
#include <cstdint>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "runtime/barrier.hpp"
#include "runtime/fiber.hpp"
#include "runtime/finish.hpp"
#include "runtime/scheduler.hpp"
#include "shmem/topology.hpp"

namespace {

using ap::rt::DeadlockError;
using ap::rt::Fiber;
using ap::rt::LaunchConfig;

TEST(Fiber, RunsToCompletion) {
  int x = 0;
  Fiber f([&x] { x = 42; });
  EXPECT_FALSE(f.finished());
  f.resume();
  EXPECT_TRUE(f.finished());
  EXPECT_EQ(x, 42);
}

TEST(Fiber, YieldSuspendsAndResumes) {
  std::vector<int> order;
  Fiber f([&order] {
    order.push_back(1);
    Fiber::yield();
    order.push_back(3);
    Fiber::yield();
    order.push_back(5);
  });
  f.resume();
  order.push_back(2);
  f.resume();
  order.push_back(4);
  f.resume();
  EXPECT_TRUE(f.finished());
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(Fiber, ExceptionPropagatesToResumer) {
  Fiber f([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.resume(), std::runtime_error);
  EXPECT_TRUE(f.finished());
}

TEST(Fiber, ResumeAfterFinishThrows) {
  Fiber f([] {});
  f.resume();
  EXPECT_THROW(f.resume(), std::logic_error);
}

TEST(Fiber, RejectsEmptyEntry) {
  EXPECT_THROW(Fiber(std::function<void()>{}), std::invalid_argument);
}

TEST(Fiber, RejectsTinyStack) {
  EXPECT_THROW(Fiber([] {}, 1024), std::invalid_argument);
}

TEST(Fiber, NestedFibers) {
  std::vector<int> order;
  Fiber outer([&order] {
    order.push_back(1);
    Fiber inner([&order] {
      order.push_back(2);
      Fiber::yield();
      order.push_back(4);
    });
    inner.resume();
    order.push_back(3);
    inner.resume();
    order.push_back(5);
  });
  outer.resume();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(Fiber, FloatingPointControlIsPerContext) {
  // 1 + 1e-30 rounds up past 1 only when rounding upward; checked in the
  // SSE unit (double, MXCSR) and in the x87 unit (long double, control
  // word).
  auto rounds_up = [] {
    volatile double one = 1.0, tiny = 1e-30;
    volatile long double one_x87 = 1.0L, tiny_x87 = 1e-30L;
    return std::vector<bool>{one + tiny > one, one_x87 + tiny_x87 > one_x87};
  };
  const std::vector<bool> neither{false, false}, both{true, true};
  ASSERT_EQ(std::fegetround(), FE_TONEAREST);
  ASSERT_EQ(rounds_up(), neither);

  std::vector<int> modes;
  std::vector<std::vector<bool>> inside;
  Fiber f([&] {
    ASSERT_EQ(std::fesetround(FE_UPWARD), 0);
    for (int i = 0; i < 3; ++i) {
      Fiber::yield();
      modes.push_back(std::fegetround());
      inside.push_back(rounds_up());
    }
  });
  while (!f.finished()) {
    f.resume();
    EXPECT_EQ(std::fegetround(), FE_TONEAREST);
    EXPECT_EQ(rounds_up(), neither);
  }
  EXPECT_EQ(modes, (std::vector<int>{FE_UPWARD, FE_UPWARD, FE_UPWARD}));
  EXPECT_EQ(inside, (std::vector<std::vector<bool>>{both, both, both}));
}

/// Recurses `depth` frames, each holding locals across a yield on the way
/// down and on the way up, and folds them into a checksum that a serial
/// run without yields reproduces.
std::uint64_t deep_checksum(std::uint64_t id, int depth, bool yield) {
  const std::uint64_t mine = id * 0x9e3779b97f4a7c15ULL + 31u * depth;
  volatile std::uint64_t pad[4] = {mine, mine ^ 1, mine ^ 2, mine ^ 3};
  if (yield) Fiber::yield();
  const std::uint64_t below =
      depth == 0 ? id : deep_checksum(id, depth - 1, yield);
  if (yield) Fiber::yield();
  return (below ^ mine) * 0x100000001b3ULL + pad[0] + pad[1] + pad[2] +
         pad[3];
}

TEST(Fiber, ManyFibersKeepTheirFramesAcrossSwitches) {
  constexpr int kFibers = 256;
  constexpr int kDepth = 32;
  constexpr std::size_t kStack = 128 * 1024;
  std::vector<std::uint64_t> got(kFibers, 0);
  std::vector<std::unique_ptr<Fiber>> fibers;
  for (int i = 0; i < kFibers; ++i)
    fibers.push_back(std::make_unique<Fiber>(
        [&got, i] {
          got[static_cast<std::size_t>(i)] =
              deep_checksum(static_cast<std::uint64_t>(i), kDepth, true);
        },
        kStack));
  // Round-robin until all finish: every fiber yields at every level, so
  // each switch lands in another fiber's frames.
  int rounds = 0;
  for (bool live = true; live; ++rounds) {
    live = false;
    for (auto& f : fibers)
      if (!f->finished()) {
        f->resume();
        live = true;
      }
  }
  // Two yields per level, one pass that finishes, one that finds none live.
  EXPECT_EQ(rounds, 2 * (kDepth + 1) + 2);
  for (int i = 0; i < kFibers; ++i)
    EXPECT_EQ(got[static_cast<std::size_t>(i)],
              deep_checksum(static_cast<std::uint64_t>(i), kDepth, false))
        << "fiber " << i;
}

TEST(Fiber, ExceptionThrownAfterYieldsPropagates) {
  int unwound = 0;
  struct Guard {
    int& n;
    ~Guard() { ++n; }
  };
  std::function<void(int)> dive = [&](int depth) {
    Guard g{unwound};
    Fiber::yield();
    if (depth == 0) throw std::runtime_error("deep");
    dive(depth - 1);
  };
  Fiber f([&] { dive(8); });
  int resumes = 0;
  std::string what;
  try {
    for (;;) {
      f.resume();
      ++resumes;
    }
  } catch (const std::runtime_error& e) {
    what = e.what();
  }
  EXPECT_EQ(what, "deep");
  EXPECT_EQ(resumes, 9);  // one yield per level before the throw
  EXPECT_TRUE(f.finished());
  EXPECT_EQ(unwound, 9);  // every frame's destructor ran on the way out

  // The resumer's context survives: a fresh fiber still runs.
  int x = 0;
  Fiber g([&x] { x = 7; });
  g.resume();
  EXPECT_EQ(x, 7);
}

TEST(Fiber, SwitchLeavesTheThreadSignalMaskAlone) {
#if !defined(AP_FIBER_USER_SWITCH)
  GTEST_SKIP() << "the ucontext fallback keeps a signal mask per context";
#else
  sigset_t usr2, saved;
  sigemptyset(&usr2);
  sigaddset(&usr2, SIGUSR2);
  ASSERT_EQ(pthread_sigmask(SIG_UNBLOCK, &usr2, &saved), 0);
  Fiber f([&usr2] {
    pthread_sigmask(SIG_BLOCK, &usr2, nullptr);
    Fiber::yield();
  });
  f.resume();
  sigset_t now;
  pthread_sigmask(SIG_SETMASK, nullptr, &now);
  const bool blocked_after_yield = sigismember(&now, SIGUSR2) == 1;
  f.resume();
  pthread_sigmask(SIG_SETMASK, nullptr, &now);
  const bool blocked_after_finish = sigismember(&now, SIGUSR2) == 1;
  pthread_sigmask(SIG_SETMASK, &saved, nullptr);
  EXPECT_TRUE(blocked_after_yield);
  EXPECT_TRUE(blocked_after_finish);
#endif
}

TEST(Scheduler, RunsEveryPe) {
  LaunchConfig cfg;
  cfg.num_pes = 7;
  std::vector<int> seen(7, 0);
  ap::rt::launch(cfg, [&seen] { seen[static_cast<size_t>(ap::rt::my_pe())]++; });
  EXPECT_EQ(std::accumulate(seen.begin(), seen.end(), 0), 7);
  for (int c : seen) EXPECT_EQ(c, 1);
}

TEST(Scheduler, MyPeOutsideLaunchIsMinusOne) { EXPECT_EQ(ap::rt::my_pe(), -1); }

TEST(Scheduler, NPesInsideLaunch) {
  LaunchConfig cfg;
  cfg.num_pes = 5;
  ap::rt::launch(cfg, [] { EXPECT_EQ(ap::rt::n_pes(), 5); });
}

TEST(Scheduler, RoundRobinIsDeterministic) {
  // Two identical launches must interleave identically.
  auto trace_of = [] {
    LaunchConfig cfg;
    cfg.num_pes = 4;
    cfg.backend = ap::rt::Backend::fiber;  // asserts fiber round-robin order
    std::vector<int> trace;
    ap::rt::launch(cfg, [&trace] {
      for (int i = 0; i < 3; ++i) {
        trace.push_back(ap::rt::my_pe());
        ap::rt::yield();
      }
    });
    return trace;
  };
  EXPECT_EQ(trace_of(), trace_of());
}

TEST(Scheduler, WaitUntilUnblocksWhenPeerActs) {
  LaunchConfig cfg;
  cfg.num_pes = 2;
  // PE 1 records itself before it releases the flag, so PE 0's entry is
  // ordered after it on both backends.
  std::atomic<int> flag{0};
  std::vector<int> order;
  ap::rt::launch(cfg, [&] {
    if (ap::rt::my_pe() == 0) {
      ap::rt::wait_until([&flag] { return flag.load() == 1; });
      order.push_back(0);
    } else {
      ap::rt::yield();
      order.push_back(1);
      flag.store(1);
    }
  });
  EXPECT_EQ(order, (std::vector<int>{1, 0}));
}

TEST(Scheduler, DeadlockIsDetected) {
  LaunchConfig cfg;
  cfg.num_pes = 2;
  EXPECT_THROW(
      ap::rt::launch(cfg, [] { ap::rt::wait_until([] { return false; }); }),
      DeadlockError);
}

TEST(Scheduler, PeExceptionPropagates) {
  LaunchConfig cfg;
  cfg.num_pes = 3;
  EXPECT_THROW(ap::rt::launch(cfg,
                              [] {
                                if (ap::rt::my_pe() == 1)
                                  throw std::runtime_error("pe1 failed");
                              }),
               std::runtime_error);
}

TEST(Scheduler, LaunchesCannotNest) {
  LaunchConfig cfg;
  cfg.num_pes = 1;
  EXPECT_THROW(ap::rt::launch(cfg,
                              [&cfg] {
                                ap::rt::launch(cfg, [] {});
                              }),
               std::logic_error);
}

TEST(Scheduler, RejectsBadConfig) {
  LaunchConfig cfg;
  cfg.num_pes = 0;
  EXPECT_THROW(ap::rt::launch(cfg, [] {}), std::invalid_argument);
  cfg.num_pes = 2;
  cfg.pes_per_node = -1;
  EXPECT_THROW(ap::rt::launch(cfg, [] {}), std::invalid_argument);
}

TEST(Scheduler, CollectiveObjectIsShared) {
  LaunchConfig cfg;
  cfg.num_pes = 4;
  std::vector<std::shared_ptr<int>> got(4);
  ap::rt::launch(cfg, [&got] {
    auto obj = ap::rt::collective<int>([] { return std::make_shared<int>(7); });
    got[static_cast<size_t>(ap::rt::my_pe())] = obj;
  });
  for (int i = 1; i < 4; ++i) EXPECT_EQ(got[0].get(), got[static_cast<size_t>(i)].get());
  EXPECT_EQ(*got[0], 7);
}

TEST(Scheduler, CollectiveTypeMismatchThrows) {
  LaunchConfig cfg;
  cfg.num_pes = 2;
  EXPECT_THROW(
      ap::rt::launch(cfg,
                     [] {
                       if (ap::rt::my_pe() == 0) {
                         ap::rt::collective<int>(
                             [] { return std::make_shared<int>(1); });
                       } else {
                         ap::rt::collective<double>(
                             [] { return std::make_shared<double>(1.0); });
                       }
                     }),
      std::logic_error);
}

TEST(Scheduler, ConfigExposesNodeShape) {
  // A launch's node shape is the Topology its two fields describe.
  LaunchConfig cfg;
  cfg.num_pes = 8;
  cfg.pes_per_node = 4;
  const ap::shmem::Topology two(cfg.num_pes, cfg.pes_per_node);
  EXPECT_EQ(two.num_nodes(), 2);
  EXPECT_EQ(two.pes_per_node(), 4);
  cfg.pes_per_node = 0;  // all PEs on one node
  const ap::shmem::Topology one(cfg.num_pes, cfg.pes_per_node);
  EXPECT_EQ(one.num_nodes(), 1);
  EXPECT_EQ(one.pes_per_node(), 8);
}

TEST(Finish, BodyRunsInline) {
  LaunchConfig cfg;
  cfg.num_pes = 2;
  std::atomic<int> count{0};
  ap::rt::launch(cfg, [&count] {
    ap::hclib::finish([&count] { count.fetch_add(1); });
  });
  EXPECT_EQ(count.load(), 2);
}

TEST(Finish, PumpRunsUntilComplete) {
  LaunchConfig cfg;
  cfg.num_pes = 1;
  int pump_calls = 0;
  ap::rt::launch(cfg, [&pump_calls] {
    ap::hclib::finish([&pump_calls] {
      ap::hclib::FinishScope::current()->register_pump([&pump_calls] {
        ++pump_calls;
        return pump_calls >= 4;
      });
    });
  });
  EXPECT_EQ(pump_calls, 4);
}

TEST(Finish, NestedFinishScopes) {
  LaunchConfig cfg;
  cfg.num_pes = 1;
  std::vector<int> order;
  ap::rt::launch(cfg, [&order] {
    // Each pump records itself and is done on its first call.
    const auto pump = [&order](int id) {
      ap::hclib::FinishScope::current()->register_pump([&order, id] {
        order.push_back(id);
        return true;
      });
    };
    ap::hclib::finish([&] {
      ap::hclib::FinishScope* outer = ap::hclib::FinishScope::current();
      pump(2);
      ap::hclib::finish([&] {
        EXPECT_NE(ap::hclib::FinishScope::current(), outer);
        pump(1);
      });
      // The inner finish ran its own pump only.
      EXPECT_EQ(order, (std::vector<int>{1}));
      EXPECT_EQ(ap::hclib::FinishScope::current(), outer);
    });
  });
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

class SchedulerPeSweep : public ::testing::TestWithParam<int> {};

TEST_P(SchedulerPeSweep, BarrierStyleHandshakeAcrossPeCounts) {
  const int n = GetParam();
  LaunchConfig cfg;
  cfg.num_pes = n;
  // A naive counting barrier built on the primitives; exercises blocking
  // and wakeup across many PEs (atomics: under threads PEs run in parallel).
  std::atomic<int> arrived{0};
  std::atomic<std::uint64_t> gen{0};
  std::atomic<int> passed{0};
  ap::rt::launch(cfg, [&] {
    for (int round = 0; round < 3; ++round) {
      const std::uint64_t g = gen.load();
      if (arrived.fetch_add(1) + 1 == n) {
        arrived.store(0);
        gen.fetch_add(1);
      } else {
        ap::rt::wait_until([&gen, g] { return gen.load() != g; });
      }
      passed.fetch_add(1);
    }
  });
  EXPECT_EQ(passed.load(), 3 * n);
}

INSTANTIATE_TEST_SUITE_P(PeCounts, SchedulerPeSweep,
                         ::testing::Values(1, 2, 3, 4, 8, 16, 32, 64));

// ------------------------------------------------- barrier deactivation

// The Sense* cases run a one-node tree (participants <= fan-in 4): the flat
// sense-reversing counter every fleet of up to 4 PEs uses.
TEST(Barrier, SenseDeactivateCompletesOpenRound) {
  ap::rt::TreeBarrier b(4);
  const auto t0 = b.arrive(0);
  const auto t1 = b.arrive(1);
  const auto t2 = b.arrive(2);
  EXPECT_FALSE(b.passed(t0));
  b.deactivate(3);  // last holdout dies: round completes on its behalf
  EXPECT_TRUE(b.passed(t0) && b.passed(t1) && b.passed(t2));
  // Later rounds run over the shrunken set.
  (void)b.arrive(0);
  (void)b.arrive(1);
  const auto t = b.arrive(2);
  EXPECT_TRUE(b.passed(t));
}

TEST(Barrier, SenseDeactivateWithNoArrivalsLeavesRoundOpen) {
  ap::rt::TreeBarrier b(3);
  b.deactivate(2);
  const auto t = b.arrive(0);
  EXPECT_FALSE(b.passed(t));
  (void)b.arrive(1);
  EXPECT_TRUE(b.passed(t));
}

TEST(Barrier, TreeDeactivateLastHoldoutCompletesRound) {
  // 40 participants, fan-in 4: a three-level tree. Every PE but 17
  // arrives; deactivating 17 must complete its leaf and climb to the
  // root like the last arriver would.
  ap::rt::TreeBarrier b(40);
  std::vector<std::uint64_t> tickets;
  for (int pe = 0; pe < 40; ++pe)
    if (pe != 17) tickets.push_back(b.arrive(pe));
  for (const auto t : tickets) EXPECT_FALSE(b.passed(t));
  b.deactivate(17);
  for (const auto t : tickets) EXPECT_TRUE(b.passed(t));
}

TEST(Barrier, TreeDeactivateBeforeArrivalsShrinksLaterRounds) {
  ap::rt::TreeBarrier b(40);
  b.deactivate(17);
  std::uint64_t last = 0;
  for (int pe = 0; pe < 40; ++pe)
    if (pe != 17) last = b.arrive(pe);
  EXPECT_TRUE(b.passed(last));
}

TEST(Barrier, TreeDeactivateWholeLeafSubtreePrunesIt) {
  // Kill PEs 16..19 — an entire fan-in-4 leaf. The empty leaf must be
  // pruned from its parent's expected count across any mix of kill
  // orderings and open arrivals.
  ap::rt::TreeBarrier b(40);
  std::vector<std::uint64_t> tickets;
  for (int pe = 0; pe < 16; ++pe) tickets.push_back(b.arrive(pe));
  b.deactivate(16);
  b.deactivate(17);
  b.deactivate(18);
  b.deactivate(19);
  for (const auto t : tickets) EXPECT_FALSE(b.passed(t));
  for (int pe = 20; pe < 40; ++pe) tickets.push_back(b.arrive(pe));
  for (const auto t : tickets) EXPECT_TRUE(b.passed(t));
  // Two more rounds over the 36 survivors still complete.
  for (int round = 0; round < 2; ++round) {
    std::uint64_t last = 0;
    for (int pe = 0; pe < 40; ++pe)
      if (pe < 16 || pe >= 20) last = b.arrive(pe);
    EXPECT_TRUE(b.passed(last));
  }
}

TEST(Barrier, TreeDeactivateDownToOneParticipant) {
  ap::rt::TreeBarrier b(33);
  for (int pe = 1; pe < 33; ++pe) b.deactivate(pe);
  const auto t = b.arrive(0);
  EXPECT_TRUE(b.passed(t));
  EXPECT_TRUE(b.passed(b.arrive(0)));
}

}  // namespace
