// Tests for minishmem: symmetric heap, topology, RMA (including staged
// non-blocking put semantics), atomics and collectives.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <numeric>
#include <vector>

#include "shmem/shmem.hpp"
#include "shmem/symmetric_heap.hpp"
#include "shmem/topology.hpp"

namespace {

namespace shmem = ap::shmem;
using ap::rt::LaunchConfig;

LaunchConfig cfg_of(int pes, int ppn = 0) {
  LaunchConfig cfg;
  cfg.num_pes = pes;
  cfg.pes_per_node = ppn;
  cfg.symm_heap_bytes = 4 << 20;
  return cfg;
}

// ---------------------------------------------------------------- Topology

TEST(Topology, SingleNodeLayout) {
  shmem::Topology t(16, 16);
  EXPECT_EQ(t.num_nodes(), 1);
  EXPECT_EQ(t.node_of(0), 0);
  EXPECT_EQ(t.node_of(15), 0);
  EXPECT_EQ(t.local_rank(7), 7);
  EXPECT_TRUE(t.same_node(0, 15));
}

TEST(Topology, TwoNodeLayout) {
  shmem::Topology t(32, 16);
  EXPECT_EQ(t.num_nodes(), 2);
  EXPECT_EQ(t.node_of(15), 0);
  EXPECT_EQ(t.node_of(16), 1);
  EXPECT_EQ(t.local_rank(16), 0);
  EXPECT_EQ(t.local_rank(31), 15);
  EXPECT_EQ(t.node_of(19), 1);
  EXPECT_EQ(t.local_rank(19), 3);
  EXPECT_FALSE(t.same_node(15, 16));
}

TEST(Topology, UnevenLastNode) {
  shmem::Topology t(10, 4);
  EXPECT_EQ(t.num_nodes(), 3);
  EXPECT_EQ(t.node_of(9), 2);
  EXPECT_EQ(t.local_rank(9), 1);
}

TEST(Topology, RejectsBadArgs) {
  EXPECT_THROW(shmem::Topology(0, 1), std::invalid_argument);
  shmem::Topology t(4, 2);
  EXPECT_THROW((void)t.node_of(4), std::out_of_range);
  EXPECT_THROW((void)t.node_of(-1), std::out_of_range);
}

// ----------------------------------------------------------- SymmetricHeap

TEST(SymmetricHeap, AllocatesAlignedDistinctBlocks) {
  shmem::SymmetricHeap h(1 << 16);
  void* a = h.allocate(100);
  void* b = h.allocate(100);
  EXPECT_NE(a, b);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(a) % shmem::SymmetricHeap::kAlignment,
            0u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(b) % shmem::SymmetricHeap::kAlignment,
            0u);
  // Both are live blocks of their own.
  EXPECT_NO_THROW(h.deallocate(a));
  EXPECT_NO_THROW(h.deallocate(b));
}

TEST(SymmetricHeap, IdenticalSequencesGiveIdenticalOffsets) {
  shmem::SymmetricHeap h1(1 << 16), h2(1 << 16);
  std::vector<std::size_t> sizes{8, 123, 4096, 1, 64, 700};
  for (std::size_t s : sizes) {
    EXPECT_EQ(h1.offset_of(h1.allocate(s)), h2.offset_of(h2.allocate(s)));
  }
}

TEST(SymmetricHeap, FreeAndReuse) {
  shmem::SymmetricHeap h(1 << 12);
  void* a = h.allocate(1024);
  const std::size_t off = h.offset_of(a);
  h.deallocate(a);
  void* b = h.allocate(512);
  EXPECT_EQ(h.offset_of(b), off);  // first-fit reuses the hole
}

TEST(SymmetricHeap, CoalescingAllowsFullSizeRealloc) {
  shmem::SymmetricHeap h(4096);
  void* a = h.allocate(1024);
  void* b = h.allocate(1024);
  void* c = h.allocate(1024);
  h.deallocate(b);
  h.deallocate(a);
  h.deallocate(c);
  EXPECT_NO_THROW(h.allocate(4096));  // only possible if fully coalesced
}

TEST(SymmetricHeap, ExhaustionThrowsBadAlloc) {
  shmem::SymmetricHeap h(1024);
  EXPECT_THROW(h.allocate(4096), std::bad_alloc);
}

TEST(SymmetricHeap, DoubleFreeAndForeignPointerThrow) {
  shmem::SymmetricHeap h(4096);
  void* a = h.allocate(16);
  h.deallocate(a);
  EXPECT_THROW(h.deallocate(a), std::invalid_argument);
  int x;
  EXPECT_THROW(h.deallocate(&x), std::invalid_argument);
}

TEST(SymmetricHeap, ZeroSizeAllocationsAreDistinct) {
  shmem::SymmetricHeap h(4096);
  void* a = h.allocate(0);
  void* b = h.allocate(0);
  EXPECT_NE(a, b);
}

// ----------------------------------------------------------------- RMA

TEST(Shmem, WorldQueries) {
  shmem::run(cfg_of(8, 4), [] {
    EXPECT_EQ(shmem::n_pes(), 8);
    const shmem::Topology& t = shmem::topology();
    EXPECT_EQ(t.num_nodes(), 2);
    EXPECT_EQ(t.node_of(shmem::my_pe()), shmem::my_pe() / 4);
    EXPECT_EQ(t.local_rank(shmem::my_pe()), shmem::my_pe() % 4);
  });
}

TEST(Shmem, CallOutsideRunThrows) {
  EXPECT_THROW(shmem::n_pes(), std::logic_error);
  EXPECT_THROW(shmem::symm_malloc(8), std::logic_error);
}

TEST(Shmem, SymmetricAllocIsZeroed) {
  shmem::run(cfg_of(2), [] {
    long* a = shmem::calloc_n<long>(16);
    for (int i = 0; i < 16; ++i) EXPECT_EQ(a[i], 0);
    shmem::symm_free(a);
  });
}

TEST(Shmem, BlockingPutIsImmediatelyVisible) {
  shmem::run(cfg_of(4), [] {
    shmem::SymmArray<long> a(4);
    shmem::barrier_all();
    const int me = shmem::my_pe();
    const long v = 100 + me;
    shmem::put(&a[0], &v, sizeof v, (me + 1) % shmem::n_pes());
    shmem::barrier_all();
    EXPECT_EQ(a[0], 100 + (me + 3) % 4);
  });
}

TEST(Shmem, GetReadsRemoteValue) {
  shmem::run(cfg_of(4), [] {
    shmem::SymmArray<long> a(1);
    a[0] = 10 * shmem::my_pe();
    shmem::barrier_all();
    long got = -1;
    shmem::get(&got, &a[0], sizeof got, (shmem::my_pe() + 1) % 4);
    EXPECT_EQ(got, 10 * ((shmem::my_pe() + 1) % 4));
    shmem::barrier_all();
  });
}

// A handshake, not yields, orders the two PEs, so the test holds on every
// execution backend: PE 1 looks at the target after PE 0 staged the put
// and before PE 0 calls quiet().
TEST(Shmem, NbiPutInvisibleBeforeQuietVisibleAfter) {
  shmem::run(cfg_of(2), [] {
    shmem::SymmArray<long> a(1);
    // [0]: PE 0 has staged the put (set on PE 1); [1]: PE 1 has looked
    // (set on PE 0).
    shmem::SymmArray<std::int64_t> flags(2);
    shmem::barrier_all();
    const std::int64_t one = 1;
    if (shmem::my_pe() == 0) {
      const long v = 77;
      shmem::putmem_nbi(&a[0], &v, sizeof v, 1);
      EXPECT_EQ(shmem::pending_nbi_puts(), 1u);
      shmem::put(&flags[0], &one, sizeof one, 1);
      shmem::wait_until(&flags[1], shmem::Cmp::eq, 1);
      shmem::quiet();
      EXPECT_EQ(shmem::pending_nbi_puts(), 0u);
    } else {
      shmem::wait_until(&flags[0], shmem::Cmp::eq, 1);
      // Staged until PE 0's quiet(), which waits for the ack below.
      EXPECT_EQ(a[0], 0);
      shmem::put(&flags[1], &one, sizeof one, 0);
    }
    shmem::barrier_all();
    if (shmem::my_pe() == 1) {
      EXPECT_EQ(a[0], 77);
    }
  });
}

TEST(Shmem, NbiSourceReadAtQuietNotAtCall) {
  // OpenSHMEM forbids touching the source until quiet(); our model reads it
  // at quiet, so the *final* value is what lands. This test documents the
  // staged semantics.
  shmem::run(cfg_of(2), [] {
    shmem::SymmArray<long> a(1);
    static long src_val;  // symmetric lifetime not required for source
    shmem::barrier_all();
    if (shmem::my_pe() == 0) {
      src_val = 1;
      shmem::putmem_nbi(&a[0], &src_val, sizeof src_val, 1);
      src_val = 2;  // violating the spec on purpose
      shmem::quiet();
    }
    shmem::barrier_all();
    if (shmem::my_pe() == 1) {
      EXPECT_EQ(a[0], 2);
    }
  });
}

TEST(Shmem, BarrierImpliesQuiet) {
  shmem::run(cfg_of(2), [] {
    shmem::SymmArray<long> a(1);
    // The source of an nbi put must stay alive until the implied quiet.
    const long v = 5;
    shmem::barrier_all();
    if (shmem::my_pe() == 0) {
      shmem::putmem_nbi(&a[0], &v, sizeof v, 1);
    }
    shmem::barrier_all();
    if (shmem::my_pe() == 1) {
      EXPECT_EQ(a[0], 5);
    }
  });
}

TEST(Shmem, PtrOnlyWorksIntraNode) {
  shmem::run(cfg_of(4, 2), [] {
    shmem::SymmArray<long> a(1);
    a[0] = shmem::my_pe();
    shmem::barrier_all();
    const int me = shmem::my_pe();
    const int buddy = me ^ 1;        // same node under ppn=2
    const int stranger = (me + 2) % 4;  // other node
    long* p = shmem::ptr(&a[0], buddy);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(*p, buddy);
    EXPECT_EQ(shmem::ptr(&a[0], stranger), nullptr);
    shmem::barrier_all();
  });
}

TEST(Shmem, PutToSelfWorks) {
  shmem::run(cfg_of(1), [] {
    shmem::SymmArray<long> a(1);
    const long v = 9;
    shmem::put(&a[0], &v, sizeof v, 0);
    EXPECT_EQ(a[0], 9);
  });
}

TEST(Shmem, PutToBadPeThrows) {
  shmem::run(cfg_of(2), [] {
    shmem::SymmArray<long> a(1);
    const long v = 1;
    EXPECT_THROW(shmem::put(&a[0], &v, sizeof v, 5), std::out_of_range);
    EXPECT_THROW(shmem::putmem_nbi(&a[0], &v, sizeof v, -1),
                 std::out_of_range);
  });
}

TEST(Shmem, PutFromNonSymmetricAddressThrows) {
  shmem::run(cfg_of(2), [] {
    long local = 0;
    const long v = 1;
    EXPECT_THROW(shmem::put(&local, &v, sizeof v, 1), std::invalid_argument);
  });
}

// ------------------------------------------------------------- Atomics

TEST(Shmem, AtomicFetchAddAccumulatesAcrossPes) {
  shmem::run(cfg_of(8), [] {
    shmem::SymmArray<std::int64_t> c(1);
    shmem::barrier_all();
    for (int i = 0; i < 10; ++i) shmem::atomic_fetch_add(&c[0], 1, 0);
    shmem::barrier_all();
    if (shmem::my_pe() == 0) {
      EXPECT_EQ(c[0], 80);
    }
  });
}

// ---------------------------------------------------------- Collectives

TEST(Shmem, SumReduce) {
  shmem::run(cfg_of(16), [] {
    const std::int64_t total = shmem::sum_reduce(static_cast<std::int64_t>(shmem::my_pe() + 1));
    EXPECT_EQ(total, 16 * 17 / 2);
  });
}

TEST(Shmem, MaxMinReduce) {
  shmem::run(cfg_of(5), [] {
    EXPECT_EQ(shmem::max_reduce(static_cast<std::int64_t>(shmem::my_pe() * 3)), 12);
    // A minimum is the negated maximum of the negated values.
    EXPECT_EQ(
        -shmem::max_reduce(static_cast<std::int64_t>(2 - shmem::my_pe())), -2);
  });
}

TEST(Shmem, DoubleSumReduce) {
  shmem::run(cfg_of(4), [] {
    EXPECT_DOUBLE_EQ(shmem::sum_reduce(0.5), 2.0);
  });
}

TEST(Shmem, RepeatedReductionsStaySynchronized) {
  shmem::run(cfg_of(4), [] {
    for (int r = 0; r < 100; ++r) {
      EXPECT_EQ(shmem::sum_reduce(static_cast<std::int64_t>(r)), 4 * r);
    }
  });
}

class ShmemScaleSweep
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(ShmemScaleSweep, RingPassAcrossShapes) {
  const auto [pes, ppn] = GetParam();
  shmem::run(cfg_of(pes, ppn), [] {
    shmem::SymmArray<long> slot(1);
    shmem::barrier_all();
    const int me = shmem::my_pe();
    const int next = (me + 1) % shmem::n_pes();
    const long v = me;
    shmem::put(&slot[0], &v, sizeof v, next);
    shmem::barrier_all();
    EXPECT_EQ(slot[0], (me + shmem::n_pes() - 1) % shmem::n_pes());
  });
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ShmemScaleSweep,
    ::testing::Values(std::pair{1, 0}, std::pair{2, 1}, std::pair{4, 2},
                      std::pair{8, 8}, std::pair{16, 16}, std::pair{32, 16},
                      std::pair{9, 4}, std::pair{64, 16}));

}  // namespace

// ------------------------------------------- OpenSHMEM profiling interface

#include "conveyor/conveyor.hpp"
#include "shmem/profiling_interface.hpp"

namespace {

/// Counts calls (per instance) with relaxed atomic adds, as every worker
/// may count at once; read the totals after a launch.
class CountingRmaObserver final : public shmem::RmaObserver {
 public:
  void on_put(int, std::size_t bytes) override {
    add(puts, 1);
    add(put_bytes, bytes);
  }
  void on_put_nbi(int, std::size_t bytes) override {
    add(nbi_puts, 1);
    add(nbi_bytes, bytes);
  }
  void on_get(int, std::size_t bytes) override {
    add(gets, 1);
    add(get_bytes, bytes);
  }
  void on_quiet(std::size_t outstanding) override {
    add(quiets, 1);
    add(completed_by_quiet, outstanding);
  }
  void on_barrier() override { add(barriers, 1); }
  void on_atomic(int) override { add(atomics, 1); }

  std::uint64_t puts = 0, nbi_puts = 0, gets = 0, quiets = 0, barriers = 0,
                atomics = 0;
  std::uint64_t put_bytes = 0, nbi_bytes = 0, get_bytes = 0,
                completed_by_quiet = 0;

 private:
  static void add(std::uint64_t& c, std::uint64_t n) {
    std::atomic_ref<std::uint64_t>(c).fetch_add(n, std::memory_order_relaxed);
  }
};

TEST(RmaObserver, CapturesNonBlockingRoutines) {
  // The §V-B gap: score-p/TAU/CrayPat/VTune cannot capture putmem_nbi.
  // Our profiling interface must see every one of them plus the quiet
  // that completes them.
  CountingRmaObserver obs;
  shmem::set_rma_observer(&obs);
  shmem::run(cfg_of(2), [] {
    shmem::SymmArray<long> a(8);
    shmem::barrier_all();
    const long v = 7;
    for (int i = 0; i < 5; ++i)
      shmem::putmem_nbi(&a[static_cast<std::size_t>(i)], &v, sizeof v,
                        1 - shmem::my_pe());
    shmem::quiet();
    shmem::put(&a[7], &v, sizeof v, 1 - shmem::my_pe());
    long out;
    shmem::get(&out, &a[7], sizeof out, 1 - shmem::my_pe());
    shmem::atomic_fetch_add(&a[6], 1, 1 - shmem::my_pe());
    shmem::barrier_all();
  });
  shmem::set_rma_observer(nullptr);
  EXPECT_EQ(obs.nbi_puts, 10u);  // 5 per PE
  EXPECT_EQ(obs.nbi_bytes, 10 * sizeof(long));
  EXPECT_GE(obs.quiets, 2u);
  EXPECT_EQ(obs.completed_by_quiet, 10u);  // every nbi completed by quiet
  EXPECT_EQ(obs.puts, 2u);
  EXPECT_EQ(obs.gets, 2u);
  EXPECT_EQ(obs.atomics, 2u);
  EXPECT_GE(obs.barriers, 4u);
}

TEST(Shmem, StatsCountOperations) {
  // The substrate reports every operation through the profiling interface:
  // one put, one nbi put and its quiet per PE.
  CountingRmaObserver obs;
  shmem::set_rma_observer(&obs);
  shmem::run(cfg_of(2), [] {
    shmem::SymmArray<long> a(1);
    shmem::barrier_all();
    const long v = 1;
    shmem::put(&a[0], &v, sizeof v, 1 - shmem::my_pe());
    shmem::putmem_nbi(&a[0], &v, sizeof v, 1 - shmem::my_pe());
    shmem::quiet();
    shmem::barrier_all();
  });
  shmem::set_rma_observer(nullptr);
  EXPECT_EQ(obs.puts, 2u);
  EXPECT_EQ(obs.put_bytes, 2 * sizeof(long));
  EXPECT_EQ(obs.nbi_puts, 2u);
  EXPECT_EQ(obs.completed_by_quiet, 2u);
  EXPECT_GE(obs.quiets, 2u);
}

TEST(RmaObserver, SeesConveyorTrafficWithoutConveyorInstrumentation) {
  // A tool built only on the SHMEM profiling interface can account for
  // Conveyors traffic: every inter-node buffer shows up as a putmem_nbi.
  CountingRmaObserver obs;
  shmem::set_rma_observer(&obs);
  shmem::run(cfg_of(4, 2), [] {
    auto c = ap::convey::Conveyor::create(ap::convey::Options{
        .item_bytes = 8, .buffer_bytes = 64});
    std::size_t i = 0;
    bool done = false;
    while (c->advance(done)) {
      for (; i < 200; ++i) {
        const std::int64_t v = static_cast<std::int64_t>(i);
        if (!c->push(&v, static_cast<int>(i % 4))) break;
      }
      c->drain([](const ap::convey::Delivered&) {});
      done = (i == 200);
      ap::rt::yield();
    }
    shmem::barrier_all();
  });
  shmem::set_rma_observer(nullptr);
  EXPECT_GT(obs.nbi_puts, 0u) << "inter-node conveyor buffers are nbi puts";
  EXPECT_EQ(obs.completed_by_quiet, obs.nbi_puts)
      << "every nbi put is eventually completed by a quiet";
}

}  // namespace

// --------------------------------------------------- wait_until (1.5)

namespace {

TEST(Shmem15, WaitUntilComparisons) {
  shmem::run(cfg_of(2), [] {
    shmem::SymmArray<std::int64_t> v(1);
    shmem::barrier_all();
    if (shmem::my_pe() == 0) {
      ap::rt::yield();  // let PE1 block first
      // A word-sized put is a release store of the whole word.
      for (const std::int64_t x : {41, 42}) shmem::put(&v[0], &x, sizeof x, 1);
    } else {
      shmem::wait_until(&v[0], shmem::Cmp::ge, 42);
      EXPECT_GE(v[0], 42);
      shmem::wait_until(&v[0], shmem::Cmp::ne, 0);  // already true: no block
      shmem::wait_until(&v[0], shmem::Cmp::lt, 100);
      shmem::wait_until(&v[0], shmem::Cmp::le, 42);
      shmem::wait_until(&v[0], shmem::Cmp::gt, 41);
      shmem::wait_until(&v[0], shmem::Cmp::eq, 42);
    }
    shmem::barrier_all();
  });
}

TEST(Shmem15, WaitUntilOnNonSymmetricAddressThrows) {
  shmem::run(cfg_of(1), [] {
    std::int64_t local = 0;
    EXPECT_THROW(shmem::wait_until(&local, shmem::Cmp::eq, 1),
                 std::invalid_argument);
  });
}

}  // namespace
