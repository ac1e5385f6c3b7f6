// Fast-path regression tests for the flat-buffer conveyor data plane
// (docs/PERFORMANCE.md): steady-state push/advance/drain cycles perform
// zero heap allocations, and ConveyorStats.memcpys matches the documented
// copy budget exactly — push 1/item, flush 1/buffer, delivery 1/run,
// drain 0/item.
//
// Allocation contract (docs/PERFORMANCE.md, "Memory at scale"): a
// destination's out-buffer — and, inter-node, its staging slots — is
// allocated on the *first send toward it*, never at create(). Untouched
// destinations cost nothing, so total conveyor allocation scales with
// PEs x touched-destinations rather than PEs^2. The steady-state tests
// below pin the "and never again" half; FirstTouch pins the lazy half.
//
// Trace decode (docs/TRACE_FORMAT.md, "Decode cost"): an .apt decoder
// reserves its output once per file and expands LZ blocks into one buffer
// reused across blocks, so its allocation count does not grow with the
// number of blocks — a count, unlike a timing, the same on every machine.
//
// Logical trace (docs/PERFORMANCE.md, "Logical sends as runs"): the
// profiler keeps a PE's kept sends as runs of same-destination, same-size
// sends, so what a profiled launch allocates beyond an unprofiled one does
// not grow with a burst of sends to one destination.
//
// The global counting operator new/delete is installed in this binary
// only; the probe counters are process-wide, which in the fiber simulator
// means a fenced window covers every PE's work in that window.
//
// Phase separation never parks a PE in a blocking barrier mid-session: a
// parked PE makes no conveyor progress, which both deadlocks multi-hop
// routes (intermediate PEs must keep forwarding) and piles deliveries into
// a burst that distorts steady-state buffer occupancy. Instead PEs pass a
// cooperative fence — an arrival counter spun on while still advancing and
// draining. Two full warmup cycles grow every buffer to its steady capacity
// (cycle 2 starts from the same mid-stream state cycle 3 does); cycle 3 is
// the measured window.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "actor/selector.hpp"
#include "conveyor/conveyor.hpp"
#include "core/alloc_probe.hpp"
#include "core/profiler.hpp"
#include "core/trace_binary.hpp"
#include "runtime/finish.hpp"
#include "runtime/scheduler.hpp"
#include "shmem/shmem.hpp"

ACTORPROF_ALLOC_PROBE_DEFINE()

namespace {

namespace convey = ap::convey;
namespace shmem = ap::shmem;
using ap::prof::AllocProbe;
using ap::rt::LaunchConfig;

LaunchConfig cfg_of(int pes, int ppn) {
  LaunchConfig cfg;
  cfg.num_pes = pes;
  cfg.pes_per_node = ppn;
  cfg.symm_heap_bytes = 16 << 20;
  return cfg;
}

constexpr std::size_t kMsgs = 3000;  // per PE, per cycle

/// Drain everything delivered, folding each payload and source into
/// `sink` so the tests can check that payloads really flowed.
void drain_into(convey::Conveyor& c, std::int64_t& sink) {
  c.drain([&sink](const convey::Delivered& d) {
    std::int64_t v;
    std::memcpy(&v, d.payload, sizeof v);
    sink += v + d.src;
  });
}

/// Push `kMsgs` items round-robin, advancing and draining as we go, without
/// entering the endgame (no done=true): the steady-state inner loop only.
void steady_rounds(convey::Conveyor& c, std::int64_t base,
                   std::int64_t& sink) {
  const int me = shmem::my_pe();
  const int n = shmem::n_pes();
  std::size_t i = 0;
  while (i < kMsgs) {
    for (; i < kMsgs; ++i) {
      const std::int64_t v = base + static_cast<std::int64_t>(i);
      const int dst = static_cast<int>((static_cast<std::size_t>(me) + i) %
                                       static_cast<std::size_t>(n));
      if (!c.push(&v, dst)) break;
    }
    (void)c.advance(false);
    drain_into(c, sink);
    ap::rt::yield();
  }
}

/// Cooperative fence: announce arrival, then keep the conveyor moving until
/// every PE arrived, plus a few settle rounds to drain in-flight tails.
void fence(convey::Conveyor& c, std::atomic<int>& gate, std::int64_t& sink) {
  gate.fetch_add(1, std::memory_order_relaxed);
  int settle = 8;
  while (gate.load(std::memory_order_relaxed) < shmem::n_pes() ||
         settle-- > 0) {
    (void)c.advance(false);
    drain_into(c, sink);
    ap::rt::yield();
  }
}

/// Drive the endgame: declare done and drain until global completion.
void finish(convey::Conveyor& c, std::int64_t& sink) {
  while (c.advance(true)) {
    drain_into(c, sink);
    ap::rt::yield();
  }
}

/// Runs two identical warmup cycles (buffers reach steady capacity), then
/// asserts a third identical cycle allocates nothing anywhere.
void expect_zero_steady_allocs(int pes, int ppn) {
  std::atomic<int> gate1{0}, gate2{0}, gate3{0};
  std::uint64_t before = 0;
  shmem::run(cfg_of(pes, ppn), [&] {
    convey::Options o;
    o.item_bytes = sizeof(std::int64_t);
    o.buffer_bytes = 512;
    auto c = convey::Conveyor::create(o);
    std::int64_t sink = 0;

    steady_rounds(*c, 0, sink);  // cycle 1: first-touch growth
    fence(*c, gate1, sink);
    steady_rounds(*c, 1 << 20, sink);  // cycle 2: growth from mid-stream
    fence(*c, gate2, sink);

    if (shmem::my_pe() == 0) {
      before = AllocProbe::count();
      AllocProbe::trap = true;  // dump a backtrace per (unexpected) alloc
    }

    steady_rounds(*c, 2 << 20, sink);  // cycle 3: measured
    fence(*c, gate3, sink);

    if (shmem::my_pe() == 0) {
      AllocProbe::trap = false;
      const std::uint64_t after = AllocProbe::count();
      EXPECT_EQ(after - before, 0u)
          << "steady-state push/advance/drain allocated " << (after - before)
          << " times on " << shmem::n_pes() << " PEs";
    }
    finish(*c, sink);
    EXPECT_NE(sink, 0);  // payloads really flowed through the callback
  });
}

TEST(AllocBudget, SteadyStateIsAllocationFreeSingleNode) {
  ASSERT_GT(AllocProbe::count(), 0u) << "probe not installed in this binary";
  expect_zero_steady_allocs(8, 8);  // local_send path only
}

TEST(AllocBudget, SteadyStateIsAllocationFreeMultiNode) {
  expect_zero_steady_allocs(8, 4);  // nbi + quiet + signal path, 2D mesh
}

// drain() snapshots by swapping the receive queue with a spare one. Here
// the callback also yields and advances mid-batch, so new deliveries land
// in the swapped-in queue while views into the other are still live: once
// both queues have grown, that pattern must allocate nothing either.
TEST(AllocBudget, SteadyStateDrainIsAllocationFree) {
  std::atomic<int> gate1{0}, gate2{0}, gate3{0};
  std::uint64_t before = 0;
  shmem::run(cfg_of(8, 8), [&] {
    convey::Options o;
    o.item_bytes = sizeof(std::int64_t);
    o.buffer_bytes = 512;
    auto c = convey::Conveyor::create(o);
    const int me = shmem::my_pe();
    const int n = shmem::n_pes();
    std::int64_t sink = 0;
    std::size_t handled = 0;

    auto drain_all = [&] {
      c->drain([&](const convey::Delivered& d) {
        std::int64_t v;
        std::memcpy(&v, d.payload, sizeof v);
        sink += v + d.src;
        if (++handled % 64 == 0) {
          ap::rt::yield();  // let the other PEs send meanwhile
          (void)c->advance(false);
        }
      });
    };
    auto drain_rounds = [&](std::int64_t base) {
      std::size_t i = 0;
      while (i < kMsgs) {
        for (; i < kMsgs; ++i) {
          const std::int64_t v = base + static_cast<std::int64_t>(i);
          const int dst = static_cast<int>((static_cast<std::size_t>(me) + i) %
                                           static_cast<std::size_t>(n));
          if (!c->push(&v, dst)) break;
        }
        (void)c->advance(false);
        drain_all();
        ap::rt::yield();
      }
    };
    auto drain_fence = [&](std::atomic<int>& gate) {
      gate.fetch_add(1, std::memory_order_relaxed);
      int settle = 8;
      while (gate.load(std::memory_order_relaxed) < n || settle-- > 0) {
        (void)c->advance(false);
        drain_all();
        ap::rt::yield();
      }
    };

    drain_rounds(0);
    drain_fence(gate1);
    drain_rounds(1 << 20);
    drain_fence(gate2);

    if (me == 0) {
      before = AllocProbe::count();
      AllocProbe::trap = true;
    }

    drain_rounds(2 << 20);
    drain_fence(gate3);

    if (me == 0) {
      AllocProbe::trap = false;
      const std::uint64_t after = AllocProbe::count();
      EXPECT_EQ(after - before, 0u)
          << "steady-state drain allocated " << (after - before) << " times";
    }
    while (c->advance(true)) {
      drain_all();
      ap::rt::yield();
    }
    EXPECT_NE(sink, 0);  // payloads really flowed through the callback
    EXPECT_GT(handled, 0u);
  });
}

// Pins the lazy per-destination half of the allocation contract: the first
// sends toward a destination allocate its buffers, re-touching it is free
// after warmup, and a brand-new destination is a fresh (one-time) cost.
// Single node on purpose: direct routing means no forwarded-overflow
// growth on intermediate hops, so the re-touch windows are deterministic
// (the multi-node steady-state test above covers staging laziness).
TEST(AllocBudget, AllocationHappensOnFirstTouchOfADestinationOnly) {
  std::atomic<int> gate1{0}, gate2{0}, gate2b{0}, gate3{0}, gate4{0},
      gate5{0}, gate5b{0}, gate6{0};
  std::uint64_t first_touch = 0, retouch = 0, fresh_touch = 0, refresh = 0;
  shmem::run(cfg_of(8, 8), [&] {
    convey::Options o;
    o.item_bytes = sizeof(std::int64_t);
    o.buffer_bytes = 512;
    auto c = convey::Conveyor::create(o);
    const int me = shmem::my_pe();
    const int n = shmem::n_pes();
    std::int64_t sink = 0;

    // Like steady_rounds, but every item goes to the single destination
    // me+offset — so each cycle touches exactly one (new or old) dst.
    auto rounds_to = [&](int offset, std::int64_t base) {
      const int dst = (me + offset) % n;
      std::size_t i = 0;
      while (i < kMsgs) {
        for (; i < kMsgs; ++i) {
          const std::int64_t v = base + static_cast<std::int64_t>(i);
          if (!c->push(&v, dst)) break;
        }
        (void)c->advance(false);
        drain_into(*c, sink);
        ap::rt::yield();
      }
    };
    std::uint64_t before = 0;
    const auto mark = [&] {
      if (me == 0) before = AllocProbe::count();
    };
    const auto delta = [&] { return AllocProbe::count() - before; };

    // Every zero-window below is closed *before* its fence: while PE0 sits
    // in a fence's settle rounds, faster PEs have already passed the gate
    // and may be first-touching the next cycle's destination — reading the
    // counter after the fence would blame those allocations on this
    // window. Closing before the fence is sound because no PE can pass the
    // *next* gate until PE0 (still pre-fence) increments it, so everything
    // running inside the window is the same non-allocating cycle. The >0
    // windows need no such care — PE0's own first touch is always inside.
    mark();
    rounds_to(1, 0);  // first touch of me+1: must allocate its buffers
    if (me == 0) first_touch = delta();
    fence(*c, gate1, sink);
    rounds_to(1, 1 << 20);  // two warmups from mid-stream state
    fence(*c, gate2, sink);
    rounds_to(1, 6 << 20);
    fence(*c, gate2b, sink);
    mark();
    rounds_to(1, 2 << 20);  // re-touch: free
    if (me == 0) retouch = delta();
    fence(*c, gate3, sink);

    mark();
    rounds_to(2, 3 << 20);  // brand-new destination: fresh one-time cost
    if (me == 0) fresh_touch = delta();
    fence(*c, gate4, sink);
    rounds_to(2, 4 << 20);
    fence(*c, gate5, sink);
    rounds_to(2, 7 << 20);
    fence(*c, gate5b, sink);
    mark();
    rounds_to(2, 5 << 20);  // ... itself free once touched
    if (me == 0) refresh = delta();
    fence(*c, gate6, sink);

    finish(*c, sink);
  });
  EXPECT_GT(first_touch, 0u) << "first sends should build dst buffers";
  EXPECT_EQ(retouch, 0u) << "re-touching a destination must be free";
  EXPECT_GT(fresh_touch, 0u) << "a new destination is a fresh first touch";
  EXPECT_EQ(refresh, 0u);
}

// On a single node routing is direct, so every delivered buffer is one
// contiguous same-destination run: the documented budget is exact, not a
// bound. memcpys == pushed + 2*sends (flush + run per buffer); drain hands
// out views, so the consume side adds no copy.
TEST(AllocBudget, MemcpysMatchDocumentedBudgetDrainPath) {
  convey::ConveyorStats total{};
  shmem::run(cfg_of(8, 8), [&total] {
    convey::Options o;
    o.item_bytes = sizeof(std::int64_t);
    o.buffer_bytes = 256;
    auto c = convey::Conveyor::create(o);
    const int me = shmem::my_pe();
    const int n = shmem::n_pes();
    std::size_t i = 0;
    bool done = false;
    while (c->advance(done)) {
      for (; i < kMsgs; ++i) {
        const std::int64_t v = static_cast<std::int64_t>(i);
        const int dst = static_cast<int>((static_cast<std::size_t>(me) + i) %
                                         static_cast<std::size_t>(n));
        if (!c->push(&v, dst)) break;
      }
      c->drain([](const convey::Delivered&) {});
      done = (i == kMsgs);
      ap::rt::yield();
    }
    shmem::barrier_all();
    if (me == 0) total = c->total_stats();
    shmem::barrier_all();
  });
  EXPECT_EQ(total.pushed, 8u * kMsgs);
  EXPECT_EQ(total.pulled, total.pushed);
  EXPECT_GT(total.drains, 0u);
  EXPECT_EQ(total.nonblock_sends, 0u);
  EXPECT_EQ(total.memcpys, total.pushed + 2 * total.local_sends);
}

/// Allocations of one single-PE launch in which the PE sends `sends`
/// messages to itself, inside an epoch of `prof` when one is given. One PE
/// keeps the count the same on every execution backend.
std::uint64_t burst_allocations(std::size_t sends,
                                ap::prof::Profiler* prof) {
  const std::uint64_t before = AllocProbe::count();
  shmem::run(cfg_of(1, 1), [&] {
    ap::actor::Actor<std::int64_t> a;
    a.mb[0].process = [](std::int64_t, int) {};
    if (prof != nullptr) prof->epoch_begin();
    ap::hclib::finish([&] {
      a.start();
      for (std::size_t i = 0; i < sends; ++i)
        a.send(static_cast<std::int64_t>(i), 0);
      a.done(0);
    });
    if (prof != nullptr) prof->epoch_end();
  });
  return AllocProbe::count() - before;
}

/// What a launch profiled with the logical trace alone allocates beyond
/// the same launch unprofiled.
std::uint64_t logical_trace_allocations(std::size_t sends) {
  const std::uint64_t plain = burst_allocations(sends, nullptr);
  ap::prof::Config c;
  c.logical = c.keep_logical_events = true;
  c.papi = c.overall = c.physical = c.supersteps = false;
  ap::prof::Profiler prof(c);
  const std::uint64_t profiled = burst_allocations(sends, &prof);
  EXPECT_EQ(prof.logical_events(0).size(), sends);
  EXPECT_EQ(prof.logical_events(0).runs().size(), 1u);
  return profiled - plain;
}

TEST(AllocBudget, LogicalTraceGrowsWithRunsNotSends) {
  (void)burst_allocations(1000, nullptr);  // one-time runtime setup
  const std::uint64_t few = logical_trace_allocations(1000);
  const std::uint64_t many = logical_trace_allocations(100000);
  EXPECT_EQ(few, many) << "1,000 sends cost " << few
                       << " profiler allocations, 100,000 sends " << many;
}

/// A PE0_send.apt body of `blocks` blocks (the last one short), as v1 or
/// as the LZ-compressed v2 container.
std::string send_shard(std::size_t blocks, bool compressed) {
  std::vector<ap::prof::LogicalSendRecord> recs;
  std::uint64_t x = blocks;
  for (std::size_t i = 0; i < blocks * 4096 - 7; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;  // LCG
    recs.push_back({0, 0, static_cast<int>((x >> 33) % 4),
                    static_cast<int>((x >> 40) % 16),
                    static_cast<std::uint32_t>(8 + (x >> 52) % 64)});
  }
  const std::string body = ap::prof::io::encode(recs);
  return compressed ? ap::prof::io::compress_trace(body) : body;
}

/// Allocations made by decoding `body` into an empty vector, which must
/// come back exactly sized: one reservation, never a regrowth.
std::uint64_t decode_allocations(const std::string& body) {
  std::vector<ap::prof::LogicalSendRecord> out;
  const std::uint64_t before = AllocProbe::count();
  ap::prof::io::read_into(body, out);
  const std::uint64_t allocations = AllocProbe::count() - before;
  EXPECT_FALSE(out.empty());
  EXPECT_EQ(out.capacity(), out.size());
  return allocations;
}

TEST(AllocBudget, TraceDecodeAllocationsDoNotGrowWithBlocks) {
  for (const bool compressed : {false, true}) {
    const std::string few = send_shard(8, compressed);
    const std::string many = send_shard(200, compressed);
    ASSERT_EQ(ap::prof::io::is_compressed_trace(many), compressed);
    if (compressed) {
      ASSERT_LT(few.size(), send_shard(8, false).size())
          << "the v2 shard must hold LZ blocks";
    }
    const std::uint64_t a = decode_allocations(few);
    const std::uint64_t b = decode_allocations(many);
    EXPECT_EQ(a, b) << (compressed ? "v2" : "v1")
                    << ": 8 blocks allocated " << a << " times, 200 blocks "
                    << b;
    EXPECT_LE(b, compressed ? 3u : 2u)
        << "output, column table and (v2) LZ buffer, once each";
  }
}

/// A PE0_send.apt body of `blocks` full blocks of one repeated row, as v1
/// or as the v2 container.
std::string repeated_row_shard(std::size_t blocks, bool compressed) {
  const std::vector<ap::prof::LogicalSendRecord> recs(blocks * 4096,
                                                      {0, 0, 1, 5, 8});
  const std::string body = ap::prof::io::encode(recs);
  return compressed ? ap::prof::io::compress_trace(body) : body;
}

/// Bytes allocated by decoding `body` into `out`.
template <class Out>
std::uint64_t decode_bytes(const std::string& body, Out& out) {
  const std::uint64_t before = AllocProbe::bytes_allocated();
  ap::prof::io::read_into(body, out);
  return AllocProbe::bytes_allocated() - before;
}

TEST(AllocBudget, LogicalLogDecodeGrowsWithRunsNotRows) {
  for (const bool compressed : {false, true}) {
    const std::string few = repeated_row_shard(8, compressed);
    const std::string many = repeated_row_shard(200, compressed);
    ASSERT_EQ(ap::prof::io::is_compressed_trace(many), compressed);
    ap::prof::LogicalSendLog a, b;
    const std::uint64_t bytes_few = decode_bytes(few, a);
    const std::uint64_t bytes_many = decode_bytes(many, b);
    const char* v = compressed ? "v2" : "v1";
    EXPECT_EQ(bytes_few, bytes_many)
        << v << ": 8 blocks allocated " << bytes_few << " B, 200 blocks "
        << bytes_many << " B";
    EXPECT_EQ(a.size(), 8u * 4096) << v;
    EXPECT_EQ(b.size(), 200u * 4096) << v;
    EXPECT_EQ(b.runs().size(), 1u) << v;
    // The vector sink holds every row: 20 bytes per record.
    std::vector<ap::prof::LogicalSendRecord> rows;
    EXPECT_GE(decode_bytes(many, rows),
              b.size() * sizeof(ap::prof::LogicalSendRecord))
        << v;
  }
}

}  // namespace
