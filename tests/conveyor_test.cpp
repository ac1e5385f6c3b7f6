// Tests for the Conveyors reimplementation: routing, aggregation,
// double-buffered flow control, multi-hop forwarding, termination, and the
// physical-trace observer hooks.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <map>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "conveyor/conveyor.hpp"
#include "conveyor/observer.hpp"
#include "conveyor/routing.hpp"
#include "runtime/scheduler.hpp"
#include "shmem/shmem.hpp"

namespace {

namespace convey = ap::convey;
namespace shmem = ap::shmem;
using ap::rt::LaunchConfig;

LaunchConfig cfg_of(int pes, int ppn = 0) {
  LaunchConfig cfg;
  cfg.num_pes = pes;
  cfg.pes_per_node = ppn;
  cfg.symm_heap_bytes = 16 << 20;
  return cfg;
}

// --------------------------------------------------------------- Router

TEST(Router, Linear1DIsDirect) {
  shmem::Topology t(8, 8);
  convey::Router r(t, convey::RouteKind::Auto);
  EXPECT_EQ(r.kind(), convey::RouteKind::Linear1D);
  for (int s = 0; s < 8; ++s)
    for (int d = 0; d < 8; ++d) EXPECT_EQ(r.next_hop(s, d), d);
}

TEST(Router, AutoPicksMesh2DForMultiNode) {
  shmem::Topology t(8, 4);
  convey::Router r(t, convey::RouteKind::Auto);
  EXPECT_EQ(r.kind(), convey::RouteKind::Mesh2D);
}

TEST(Router, Mesh2DRowThenColumn) {
  shmem::Topology t(8, 4);  // 2 nodes x 4 PEs
  convey::Router r(t, convey::RouteKind::Mesh2D);
  // Same node: direct.
  EXPECT_EQ(r.next_hop(0, 3), 3);
  // Cross node, different column: first a row hop to the destination's
  // column within the sender's node...
  EXPECT_EQ(r.next_hop(0, 7), 3);  // dst local rank 3 -> PE 3 on node 0
  // ...then the column hop to the destination.
  EXPECT_EQ(r.next_hop(3, 7), 7);
  // Cross node, same column: straight down the column.
  EXPECT_EQ(r.next_hop(1, 5), 5);
}

/// Number of hops the full route src->dst takes (a self-send still
/// traverses the stack once).
int hop_count(const convey::Router& r, int src, int dst) {
  if (src == dst) return 1;
  int hops = 0;
  for (int at = src; at != dst; at = r.next_hop(at, dst))
    if (++hops > 4) throw std::logic_error("Router: route does not converge");
  return hops;
}

TEST(Router, Mesh2DHopCounts) {
  shmem::Topology t(32, 16);
  convey::Router r(t, convey::RouteKind::Mesh2D);
  EXPECT_EQ(hop_count(r, 0, 0), 1);    // self
  EXPECT_EQ(hop_count(r, 0, 5), 1);    // intra-node
  EXPECT_EQ(hop_count(r, 0, 16), 1);   // same column, inter-node
  EXPECT_EQ(hop_count(r, 0, 21), 2);   // row + column
}

TEST(Router, Cube3DConverges) {
  shmem::Topology t(4 * 6, 4);  // 6 nodes = 2x3 grid
  convey::Router r(t, convey::RouteKind::Cube3D);
  for (int s = 0; s < 24; ++s)
    for (int d = 0; d < 24; ++d) EXPECT_LE(hop_count(r, s, d), 3);
}

TEST(Router, RouteAlwaysReachesDestination) {
  for (auto [pes, ppn] : {std::pair{16, 16}, {32, 16}, {24, 4}, {12, 3}}) {
    shmem::Topology t(pes, ppn);
    for (auto kind : {convey::RouteKind::Linear1D, convey::RouteKind::Mesh2D,
                      convey::RouteKind::Cube3D}) {
      convey::Router r(t, kind);
      for (int s = 0; s < pes; ++s)
        for (int d = 0; d < pes; ++d)
          EXPECT_GE(hop_count(r, s, d), 1) << "pes=" << pes;
    }
  }
}

TEST(Router, Mesh2DRowHopsAreIntraNodeColumnHopsInterNode) {
  shmem::Topology t(32, 16);
  convey::Router r(t, convey::RouteKind::Mesh2D);
  for (int s = 0; s < 32; ++s) {
    for (int d = 0; d < 32; ++d) {
      int at = s;
      while (at != d) {
        const int nh = r.next_hop(at, d);
        if (t.same_node(at, nh)) {
          // Row hop must land on the destination's column.
          EXPECT_EQ(t.local_rank(nh), t.local_rank(d));
        } else {
          // Column hop keeps the column fixed.
          EXPECT_EQ(t.local_rank(nh), t.local_rank(at));
        }
        at = nh;
      }
    }
  }
}

// --------------------------------------------------------- basic movement

/// Drives the canonical conveyor loop until completion.
template <class PushFn, class ConsumeFn>
void conveyor_loop(convey::Conveyor& c, std::size_t total_to_push,
                   PushFn&& produce, ConsumeFn&& consume) {
  std::size_t i = 0;
  bool done = false;
  while (c.advance(done)) {
    for (; i < total_to_push; ++i)
      if (!produce(i)) break;
    c.drain([&consume](const convey::Delivered& d) {
      std::int64_t item;
      std::memcpy(&item, d.payload, sizeof item);
      consume(item, d.src);
    });
    done = (i == total_to_push);
    ap::rt::yield();
  }
}

TEST(Conveyor, EveryMessageArrivesExactlyOnce1Node) {
  shmem::run(cfg_of(8, 8), [] {
    convey::Options o;
    o.item_bytes = sizeof(std::int64_t);
    o.buffer_bytes = 256;
    auto c = convey::Conveyor::create(o);
    const int me = shmem::my_pe();
    const int n = shmem::n_pes();
    const std::size_t per_pe = 500;

    std::map<std::int64_t, int> received;
    conveyor_loop(
        *c, per_pe,
        [&](std::size_t i) {
          const std::int64_t payload = me * 100000 + static_cast<std::int64_t>(i);
          const int dst = static_cast<int>((me + i) % static_cast<std::size_t>(n));
          return c->push(&payload, dst);
        },
        [&](std::int64_t item, int from) {
          received[item]++;
          EXPECT_EQ(from, item / 100000);
        });

    const std::int64_t mine =
        std::accumulate(received.begin(), received.end(), std::int64_t{0},
                        [](std::int64_t a, auto& kv) { return a + kv.second; });
    EXPECT_EQ(shmem::sum_reduce(mine), 8 * 500);
    for (auto& [k, v] : received) EXPECT_EQ(v, 1) << "dup " << k;
  });
}

TEST(Conveyor, EveryMessageArrivesExactlyOnce2NodesMesh) {
  shmem::run(cfg_of(8, 4), [] {
    convey::Options o;
    o.item_bytes = sizeof(std::int64_t);
    o.buffer_bytes = 128;
    auto c = convey::Conveyor::create(o);
    EXPECT_EQ(convey::Router::resolve(shmem::topology(), o.route),
              convey::RouteKind::Mesh2D);
    const int me = shmem::my_pe();
    const int n = shmem::n_pes();
    const std::size_t per_pe = 400;

    std::int64_t count = 0, checksum = 0;
    conveyor_loop(
        *c, per_pe,
        [&](std::size_t i) {
          const std::int64_t payload = me * 1000 + static_cast<std::int64_t>(i);
          const int dst = static_cast<int>((7 * i + static_cast<std::size_t>(me)) %
                                           static_cast<std::size_t>(n));
          return c->push(&payload, dst);
        },
        [&](std::int64_t item, int) {
          ++count;
          checksum += item;
        });

    std::int64_t expect_sum = 0;
    for (int p = 0; p < n; ++p)
      for (std::size_t i = 0; i < per_pe; ++i)
        expect_sum += p * 1000 + static_cast<std::int64_t>(i);
    EXPECT_EQ(shmem::sum_reduce(count), 8 * 400);
    EXPECT_EQ(shmem::sum_reduce(checksum), expect_sum);
  });
}

TEST(Conveyor, SelfSendGoesThroughFullStack) {
  shmem::run(cfg_of(2, 2), [] {
    convey::Options o;
    o.item_bytes = sizeof(std::int64_t);
    auto c = convey::Conveyor::create(o);
    std::int64_t got = -1;
    conveyor_loop(
        *c, 1,
        [&](std::size_t) {
          const std::int64_t v = 42 + shmem::my_pe();
          return c->push(&v, shmem::my_pe());
        },
        [&](std::int64_t item, int from) {
          got = item;
          EXPECT_EQ(from, shmem::my_pe());
        });
    EXPECT_EQ(got, 42 + shmem::my_pe());
    // The paper's self-send note: no bypass — copies through push, flush
    // and delivery all happen (3 for one item; drain copies nothing).
    EXPECT_EQ(c->stats().memcpys, 3u);
    EXPECT_GE(c->stats().local_sends, 1u);
  });
}

TEST(Conveyor, BackPressureEventuallyAccepts) {
  shmem::run(cfg_of(2, 2), [] {
    convey::Options o;
    o.item_bytes = sizeof(std::int64_t);
    o.buffer_bytes = 64;  // tiny: 4 records per buffer
    auto c = convey::Conveyor::create(o);
    const std::size_t burst = 2000;  // far beyond 2 slots * 4 records
    std::size_t delivered = 0;
    conveyor_loop(
        *c, burst,
        [&](std::size_t i) {
          const std::int64_t v = static_cast<std::int64_t>(i);
          return c->push(&v, 1 - shmem::my_pe());
        },
        [&](std::int64_t, int) { ++delivered; });
    EXPECT_EQ(shmem::sum_reduce(static_cast<std::int64_t>(delivered)),
              2 * static_cast<std::int64_t>(burst));
  });
}

TEST(Conveyor, PushAfterDoneThrows) {
  shmem::run(cfg_of(2, 2), [] {
    convey::Options o;
    auto c = convey::Conveyor::create(o);
    bool done = false;
    const std::int64_t v = 1;
    while (c->advance(done)) {
      if (!done) {
        EXPECT_TRUE(c->push(&v, 0));
        done = true;
      } else {
        EXPECT_THROW(c->push(&v, 0), std::logic_error);
      }
      c->drain([](const convey::Delivered&) {});
      ap::rt::yield();
    }
  });
}

TEST(Conveyor, PushToBadPeThrows) {
  shmem::run(cfg_of(2, 2), [] {
    auto c = convey::Conveyor::create(convey::Options{});
    const std::int64_t v = 1;
    EXPECT_THROW(c->push(&v, 2), std::out_of_range);
    EXPECT_THROW(c->push(&v, -1), std::out_of_range);
    // Drain so destruction order stays collective.
    bool done = true;
    while (c->advance(done)) ap::rt::yield();
  });
}

TEST(Conveyor, RejectsBadOptions) {
  shmem::run(cfg_of(2, 2), [] {
    convey::Options o;
    o.item_bytes = 0;
    EXPECT_THROW(convey::Conveyor::create(o), std::invalid_argument);
    ap::rt::yield();
  });
  shmem::run(cfg_of(2, 2), [] {
    convey::Options o;
    o.item_bytes = 64;
    o.buffer_bytes = 16;  // cannot hold even one record
    EXPECT_THROW(convey::Conveyor::create(o), std::invalid_argument);
    ap::rt::yield();
  });
}

// ------------------------------------------------- transfer types & hooks

/// Under the threads backend every worker reports transfers at once, so
/// appends take a lock; read recs after the launch.
struct RecordingObserver : convey::TransferObserver {
  struct Rec {
    convey::SendType type;
    std::size_t bytes;
    int src, dst;
  };
  std::vector<Rec> recs;
  std::mutex mu;
  void on_transfer(convey::SendType t, std::size_t b, int s, int d,
                   std::uint64_t) override {
    const std::lock_guard<std::mutex> lk(mu);
    recs.push_back({t, b, s, d});
  }
};

class ObserverGuard {
 public:
  explicit ObserverGuard(convey::TransferObserver* o) {
    convey::set_transfer_observer(o);
  }
  ~ObserverGuard() { convey::set_transfer_observer(nullptr); }
};

TEST(Conveyor, SingleNodeUsesOnlyLocalSends) {
  RecordingObserver obs;
  ObserverGuard guard(&obs);
  shmem::run(cfg_of(4, 4), [] {
    convey::Options o;
    o.buffer_bytes = 64;
    auto c = convey::Conveyor::create(o);
    conveyor_loop(
        *c, 100,
        [&](std::size_t i) {
          const std::int64_t v = static_cast<std::int64_t>(i);
          return c->push(&v, static_cast<int>(i % 4));
        },
        [](std::int64_t, int) {});
    EXPECT_GT(c->stats().local_sends, 0u);
    EXPECT_EQ(c->stats().nonblock_sends, 0u);
    EXPECT_EQ(c->stats().progress_calls, 0u);
  });
  for (const auto& r : obs.recs)
    EXPECT_EQ(r.type, convey::SendType::local_send);
  EXPECT_FALSE(obs.recs.empty());
}

TEST(Conveyor, TwoNodesUseAllThreeTransferTypes) {
  RecordingObserver obs;
  ObserverGuard guard(&obs);
  shmem::run(cfg_of(8, 4), [] {
    convey::Options o;
    o.buffer_bytes = 64;
    auto c = convey::Conveyor::create(o);
    conveyor_loop(
        *c, 200,
        [&](std::size_t i) {
          const std::int64_t v = static_cast<std::int64_t>(i);
          return c->push(&v, static_cast<int>((i * 3) % 8));
        },
        [](std::int64_t, int) {});
  });
  std::set<convey::SendType> types;
  for (const auto& r : obs.recs) types.insert(r.type);
  EXPECT_TRUE(types.count(convey::SendType::local_send));
  EXPECT_TRUE(types.count(convey::SendType::nonblock_send));
  EXPECT_TRUE(types.count(convey::SendType::nonblock_progress));
}

TEST(Conveyor, MeshTransfersRespectTopology) {
  RecordingObserver obs;
  ObserverGuard guard(&obs);
  shmem::run(cfg_of(8, 4), [] {
    convey::Options o;
    o.buffer_bytes = 64;
    auto c = convey::Conveyor::create(o);
    conveyor_loop(
        *c, 300,
        [&](std::size_t i) {
          const std::int64_t v = static_cast<std::int64_t>(i);
          return c->push(&v, static_cast<int>((i + 5) % 8));
        },
        [](std::int64_t, int) {});
  });
  shmem::Topology t(8, 4);
  for (const auto& r : obs.recs) {
    if (r.type == convey::SendType::local_send) {
      EXPECT_TRUE(t.same_node(r.src, r.dst))
          << "local_send " << r.src << "->" << r.dst;
    } else {
      EXPECT_FALSE(t.same_node(r.src, r.dst))
          << ap::convey::to_string(r.type) << " " << r.src << "->" << r.dst;
      // Column transfers keep the local rank fixed (2D mesh).
      EXPECT_EQ(t.local_rank(r.src), t.local_rank(r.dst));
    }
  }
}

TEST(Conveyor, ObservedBytesMatchStats) {
  RecordingObserver obs;
  ObserverGuard guard(&obs);
  convey::ConveyorStats total{};
  shmem::run(cfg_of(4, 2), [&total] {
    convey::Options o;
    o.buffer_bytes = 96;
    auto c = convey::Conveyor::create(o);
    conveyor_loop(
        *c, 150,
        [&](std::size_t i) {
          const std::int64_t v = static_cast<std::int64_t>(i);
          return c->push(&v, static_cast<int>(i % 4));
        },
        [](std::int64_t, int) {});
    shmem::barrier_all();
    EXPECT_EQ(c->total_stats().pushed, c->total_stats().pulled);
    if (shmem::my_pe() == 0) total = c->total_stats();
    // Hold every endpoint alive until PE0 snapshotted the totals.
    shmem::barrier_all();
  });
  std::uint64_t local_bytes = 0, nbi_bytes = 0, local_n = 0, nbi_n = 0;
  for (const auto& r : obs.recs) {
    if (r.type == convey::SendType::local_send) {
      local_bytes += r.bytes;
      ++local_n;
    }
    if (r.type == convey::SendType::nonblock_send) {
      nbi_bytes += r.bytes;
      ++nbi_n;
    }
  }
  // Every transfer the endpoints counted was observed, byte for byte.
  EXPECT_EQ(local_bytes, total.local_send_bytes);
  EXPECT_EQ(nbi_bytes, total.nonblock_send_bytes);
  EXPECT_EQ(local_n, total.local_sends);
  EXPECT_EQ(nbi_n, total.nonblock_sends);
  EXPECT_GT(local_bytes + nbi_bytes, 0u);
}

// ----------------------------------------------------- property sweeps

// gtest names each case by the bytes of its parameter (ctest lists those
// names), so the struct has no padding: the explicit zero word keeps the
// bytes, and with them the names, the same in every build.
struct SweepParam {
  SweepParam(int pes_, int ppn_, std::size_t buffer_bytes_,
             convey::RouteKind route_, std::size_t msgs_per_pe_)
      : pes(pes_),
        ppn(ppn_),
        buffer_bytes(buffer_bytes_),
        route(route_),
        msgs_per_pe(msgs_per_pe_) {}
  int pes;
  int ppn;
  std::size_t buffer_bytes;
  convey::RouteKind route;
  std::int32_t zero_pad = 0;
  std::size_t msgs_per_pe;
};
static_assert(std::has_unique_object_representations_v<SweepParam>);

class ConveyorSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(ConveyorSweep, ConservationAndTermination) {
  const SweepParam p = GetParam();
  shmem::run(cfg_of(p.pes, p.ppn), [&p] {
    convey::Options o;
    o.item_bytes = sizeof(std::int64_t);
    o.buffer_bytes = p.buffer_bytes;
    o.route = p.route;
    auto c = convey::Conveyor::create(o);
    const int me = shmem::my_pe();
    const int n = shmem::n_pes();

    std::int64_t received = 0, sent_sum = 0, recv_sum = 0;
    conveyor_loop(
        *c, p.msgs_per_pe,
        [&](std::size_t i) {
          const std::int64_t v =
              static_cast<std::int64_t>(me) * 131071 +
              static_cast<std::int64_t>(i);
          const int dst = static_cast<int>(
              (static_cast<std::size_t>(me) * 7 + i * 13) %
              static_cast<std::size_t>(n));
          if (!c->push(&v, dst)) return false;
          sent_sum += v;
          return true;
        },
        [&](std::int64_t item, int) {
          ++received;
          recv_sum += item;
        });

    // Conservation: globally, every pushed item was drained exactly once
    // (checksummed, so reordering and duplication are both caught).
    EXPECT_EQ(shmem::sum_reduce(received),
              static_cast<std::int64_t>(p.msgs_per_pe) * n);
    EXPECT_EQ(shmem::sum_reduce(sent_sum), shmem::sum_reduce(recv_sum));
    EXPECT_EQ(c->delivered_total(),
              p.msgs_per_pe * static_cast<std::size_t>(n));
  });
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ConveyorSweep,
    ::testing::Values(
        SweepParam{1, 0, 64, convey::RouteKind::Auto, 100},
        SweepParam{4, 4, 64, convey::RouteKind::Auto, 300},
        SweepParam{4, 2, 64, convey::RouteKind::Auto, 300},
        SweepParam{8, 4, 48, convey::RouteKind::Mesh2D, 500},
        SweepParam{16, 16, 256, convey::RouteKind::Linear1D, 400},
        SweepParam{16, 4, 128, convey::RouteKind::Mesh2D, 400},
        SweepParam{32, 16, 512, convey::RouteKind::Mesh2D, 200},
        SweepParam{24, 4, 96, convey::RouteKind::Cube3D, 200},
        SweepParam{12, 2, 32, convey::RouteKind::Cube3D, 150},
        SweepParam{8, 4, 4096, convey::RouteKind::Auto, 64},
        SweepParam{5, 2, 64, convey::RouteKind::Mesh2D, 211},
        SweepParam{16, 8, 72, convey::RouteKind::Auto, 333},
        // Above kCompactThreshold (64) endpoints switch to lazy keyed
        // per-hop/per-source state with the announcement protocol; these
        // shapes cover compact mode over every route family.
        SweepParam{80, 16, 96, convey::RouteKind::Mesh2D, 60},
        SweepParam{96, 96, 64, convey::RouteKind::Linear1D, 50},
        SweepParam{72, 8, 64, convey::RouteKind::Cube3D, 40},
        SweepParam{100, 10, 128, convey::RouteKind::Auto, 50}));

TEST(Conveyor, LargeItems) {
  shmem::run(cfg_of(4, 2), [] {
    struct Big {
      std::int64_t a[16];
    };
    convey::Options o;
    o.item_bytes = sizeof(Big);
    o.buffer_bytes = 2 * (sizeof(Big) + 8) + 8;
    auto c = convey::Conveyor::create(o);
    const int me = shmem::my_pe();
    std::size_t i = 0;
    bool done = false;
    std::int64_t sum = 0;
    while (c->advance(done)) {
      for (; i < 50; ++i) {
        Big b;
        for (int k = 0; k < 16; ++k) b.a[k] = me + k;
        if (!c->push(&b, static_cast<int>(i % 4))) break;
      }
      c->drain([&sum](const convey::Delivered& d) {
        Big r;
        std::memcpy(&r, d.payload, sizeof r);
        for (int k = 0; k < 16; ++k) sum += r.a[k] - d.src - k;
      });
      done = (i == 50);
      ap::rt::yield();
    }
    EXPECT_EQ(shmem::sum_reduce(sum), 0);  // payload integrity
  });
}

// --------------------------------------------------- batch-drain fast path

/// Both backends: 16 PEs on 8 nodes, flow ids on, over every route family.
/// A route is fixed per (source, destination) pair and every hop is FIFO,
/// so each PE must see every source's records in push order, each with the
/// flow id it was pushed with.
TEST(Conveyor, DrainKeepsPerSourceOrderAndFlowIds) {
  constexpr std::int64_t kMsgs = 300;
  for (const auto route : {convey::RouteKind::Linear1D,
                           convey::RouteKind::Mesh2D,
                           convey::RouteKind::Cube3D}) {
    shmem::run(cfg_of(16, 2), [route] {
      convey::Options o;
      o.item_bytes = sizeof(std::int64_t);
      o.buffer_bytes = 96;
      o.route = route;
      o.carry_flow_ids = true;
      auto c = convey::Conveyor::create(o);
      const int me = shmem::my_pe();
      const int n = shmem::n_pes();
      const auto flow_of = [](std::int64_t src, std::int64_t i) {
        return static_cast<std::uint64_t>(src * 100000 + i + 1);
      };
      std::vector<std::int64_t> last(static_cast<std::size_t>(n), -1);
      std::int64_t got = 0, out_of_order = 0, wrong_flow = 0;
      std::int64_t i = 0;
      bool done = false;
      while (c->advance(done)) {
        for (; i < kMsgs; ++i) {
          const std::int64_t v = me * kMsgs + i;
          const int dst = static_cast<int>((me * 7 + i * 13) % n);
          if (!c->push(&v, dst, flow_of(me, i))) break;
        }
        c->drain([&](const convey::Delivered& d) {
          std::int64_t v;
          std::memcpy(&v, d.payload, sizeof v);
          const std::int64_t seq = v % kMsgs;
          EXPECT_EQ(v / kMsgs, d.src);
          std::int64_t& prev = last[static_cast<std::size_t>(d.src)];
          if (seq <= prev) ++out_of_order;
          prev = seq;
          if (d.flow != flow_of(d.src, seq)) ++wrong_flow;
          ++got;
        });
        done = (i == kMsgs);
        ap::rt::yield();
      }
      EXPECT_EQ(out_of_order, 0) << "PE " << me;
      EXPECT_EQ(wrong_flow, 0) << "PE " << me;
      EXPECT_EQ(c->stats().pulled, static_cast<std::uint64_t>(got));
      EXPECT_GT(c->stats().drains, 0u);
      EXPECT_EQ(shmem::sum_reduce(got), n * kMsgs);  // each exactly once
    });
  }
}

TEST(Conveyor, DrainCallbackMayPushAndAdvance) {
  // A handler that re-sends from inside drain() must not invalidate the
  // batch being walked: new deliveries land in a fresh queue.
  shmem::run(cfg_of(4, 4), [] {
    convey::Options o;
    o.item_bytes = sizeof(std::int64_t);
    o.buffer_bytes = 64;
    auto c = convey::Conveyor::create(o);
    const int me = shmem::my_pe();
    const int n = shmem::n_pes();
    std::size_t i = 0;
    bool done = false;
    std::int64_t bounced = 0, received = 0;
    while (c->advance(done)) {
      for (; i < 100; ++i) {
        const std::int64_t v = 1;  // generation 1: bounce once
        if (!c->push(&v, static_cast<int>((me + 1) % n))) break;
      }
      c->drain([&](const convey::Delivered& d) {
        std::int64_t v;
        std::memcpy(&v, d.payload, sizeof v);
        ++received;
        if (v == 1) {
          const std::int64_t two = 2;
          while (!c->push(&two, d.src)) {  // advance() from inside drain()
            (void)c->advance(false);
            ap::rt::yield();
          }
          ++bounced;
        }
      });
      // Done only once our own sends AND the replies they owe are out:
      // exactly 100 generation-1 messages arrive (from the left neighbour).
      done = (i == 100 && bounced == 100);
      ap::rt::yield();
    }
    // Every generation-1 message was eventually answered by a generation-2.
    EXPECT_EQ(shmem::sum_reduce(bounced), 4 * 100);
    EXPECT_EQ(shmem::sum_reduce(received), 2 * 4 * 100);
  });
}

TEST(Conveyor, DoubleBufferingTriggersProgressUnderPressure) {
  RecordingObserver obs;
  ObserverGuard guard(&obs);
  shmem::run(cfg_of(4, 2), [] {
    convey::Options o;
    o.buffer_bytes = 32;  // 2 records per buffer — heavy slot pressure
    auto c = convey::Conveyor::create(o);
    conveyor_loop(
        *c, 500,
        [&](std::size_t i) {
          const std::int64_t v = static_cast<std::int64_t>(i);
          // Everything cross-node to force the nbi path.
          const int dst = (shmem::my_pe() + 2) % 4;
          (void)i;
          return c->push(&v, dst);
        },
        [](std::int64_t, int) {});
    // Many nonblock_sends with few slots must have required quiet+signal
    // rounds well before the endgame.
    EXPECT_GT(c->stats().progress_calls, 1u);
  });
}

}  // namespace
