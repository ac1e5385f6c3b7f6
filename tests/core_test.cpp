// Tests for the ActorProf core: region accounting, logical/physical
// matrices, PAPI segment attribution, overall breakdown, aggregation
// helpers, and trace-file round trips.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "actor/selector.hpp"
#include "apps/histogram.hpp"
#include "apps/triangle.hpp"
#include "core/aggregate.hpp"
#include "core/profiler.hpp"
#include "core/trace_io.hpp"
#include "graph/distribution.hpp"
#include "graph/rmat.hpp"
#include "papi/papi.hpp"
#include "shmem/shmem.hpp"
#include "test_tmpdir.hpp"

namespace {

namespace fs = std::filesystem;
namespace shmem = ap::shmem;
using namespace ap::prof;

ap::rt::LaunchConfig cfg_of(int pes, int ppn = 0) {
  ap::rt::LaunchConfig cfg;
  cfg.num_pes = pes;
  cfg.pes_per_node = ppn;
  cfg.symm_heap_bytes = 16 << 20;
  return cfg;
}

Config all_on() {
  Config c = Config::all_enabled();
  c.trace_dir = ::testing::TempDir();
  return c;
}

// ------------------------------------------------------------- aggregates

TEST(CommMatrix, SumsAndTotals) {
  CommMatrix m(3);
  m.add(0, 1, 5);
  m.add(0, 2, 3);
  m.add(2, 0, 7);
  EXPECT_EQ(m.total(), 15u);
  EXPECT_EQ(m.max_cell(), 7u);
  EXPECT_EQ(m.row_sums(), (std::vector<std::uint64_t>{8, 0, 7}));
  EXPECT_EQ(m.col_sums(), (std::vector<std::uint64_t>{7, 5, 3}));
}

TEST(CommMatrix, LowerTriangularDetection) {
  CommMatrix m(3);
  m.add(2, 0);
  m.add(1, 1);  // diagonal allowed
  EXPECT_TRUE(m.is_lower_triangular());
  m.add(0, 2);
  EXPECT_FALSE(m.is_lower_triangular());
}

TEST(SparseCommMatrix, MirrorsDenseSemantics) {
  SparseCommMatrix s(5);
  CommMatrix d(5);
  const auto put = [&](int src, int dst, std::uint64_t v) {
    s.add(src, dst, v);
    d.add(src, dst, v);
  };
  put(0, 1, 5);
  put(0, 1, 2);  // accumulates into one cell
  put(4, 0, 9);
  put(3, 3, 1);
  EXPECT_EQ(s.total(), d.total());
  EXPECT_EQ(s.row_sums(), d.row_sums());
  EXPECT_EQ(s.col_sums(), d.col_sums());
  EXPECT_EQ(s.nonzero_cells(), 3u);
  EXPECT_EQ(s.at(0, 1), 7u);
  EXPECT_EQ(s.at(1, 0), 0u);  // absent cell reads as zero
  EXPECT_EQ(s.dense(), d);
}

TEST(SparseCommMatrix, BucketedMatchesDenseBucketing) {
  // Non-divisible on purpose: 10 PEs into 4 buckets (per = 3, last = 1).
  SparseCommMatrix s(10);
  CommMatrix d(10);
  for (int src = 0; src < 10; ++src)
    for (int dst = 0; dst < 10; ++dst) {
      const auto v = static_cast<std::uint64_t>(src * 10 + dst + 1);
      s.add(src, dst, v);
      d.add(src, dst, v);
    }
  EXPECT_EQ(s.bucketed(4), bucket_matrix(d, 4));
  EXPECT_EQ(s.bucketed(16), d);  // small enough: dense passthrough
  EXPECT_THROW(s.bucketed(0), std::invalid_argument);
}

// Property test for the bucket helpers over non-divisible PE counts: the
// bucket ranges must partition [0, n) exactly — every PE in exactly one
// bucket, bucket_of consistent with bucket_range, widths never exceeding
// ceil(n/target) — or bucketed rows/labels misattribute the tail PEs.
TEST(BucketHelpers, RangesPartitionAllPesExactlyOnce) {
  const int cases[][2] = {{1000, 48}, {130, 64}, {1, 64},   {64, 64},
                          {65, 64},   {127, 64}, {2048, 64}, {97, 13}};
  for (const auto& c : cases) {
    const int n = c[0], target = c[1];
    const int buckets = bucket_count(n, target);
    ASSERT_LE(buckets, target) << "n=" << n;
    int covered = 0;
    for (int b = 0; b < buckets; ++b) {
      const BucketRange r = bucket_range(b, n, target);
      ASSERT_EQ(r.begin, covered) << "gap/overlap at bucket " << b
                                  << " for n=" << n << " target=" << target;
      ASSERT_GT(r.width(), 0);
      covered = r.end;
      for (int pe = r.begin; pe < r.end; ++pe)
        ASSERT_EQ(bucket_of(pe, n, target), b)
            << "PE" << pe << " misattributed for n=" << n;
    }
    ASSERT_EQ(covered, n) << "ranges do not cover [0," << n << ")";
  }
}

TEST(BucketHelpers, BucketMatrixAttributionMatchesBucketOf) {
  // 1000 PEs into 48 buckets (per = 21, 48 buckets, last bucket 13 PEs):
  // every cell must land in the bucket bucket_of names, and totals hold.
  const int n = 1000, target = 48;
  CommMatrix m(n);
  SparseCommMatrix s(n);
  // A sparse diagonal-ish pattern including the very last PE.
  for (int src = 0; src < n; src += 37) {
    const int dst = (src * 13 + 5) % n;
    m.add(src, dst, 3);
    s.add(src, dst, 3);
  }
  m.add(n - 1, 0, 11);
  s.add(n - 1, 0, 11);
  const CommMatrix bm = bucket_matrix(m, target);
  const CommMatrix bs = s.bucketed(target);
  EXPECT_EQ(bm, bs);
  EXPECT_EQ(bm.size(), bucket_count(n, target));
  EXPECT_EQ(bm.total(), m.total());
  // Rebuild the expected bucketed matrix straight from bucket_of.
  CommMatrix expect(bucket_count(n, target));
  s.for_each([&](int src, int dst, std::uint64_t v) {
    expect.add(bucket_of(src, n, target),
               bucket_of(dst, n, target), v);
  });
  EXPECT_EQ(bm, expect);
  // The last PE's traffic lands in the final (short) bucket's row.
  EXPECT_GE(bm.at(bucket_count(n, target) - 1, 0), 11u);
}

TEST(Quartiles, KnownValues) {
  const auto q = quartiles({1, 2, 3, 4, 5});
  EXPECT_DOUBLE_EQ(q.min, 1);
  EXPECT_DOUBLE_EQ(q.q1, 2);
  EXPECT_DOUBLE_EQ(q.median, 3);
  EXPECT_DOUBLE_EQ(q.q3, 4);
  EXPECT_DOUBLE_EQ(q.max, 5);
  EXPECT_DOUBLE_EQ(q.mean, 3);
  EXPECT_EQ(q.n, 5u);
}

TEST(Quartiles, InterpolatesAndHandlesEdgeCases) {
  const auto q = quartiles({1, 2, 3, 4});
  EXPECT_DOUBLE_EQ(q.median, 2.5);
  const auto single = quartiles({7});
  EXPECT_DOUBLE_EQ(single.min, 7);
  EXPECT_DOUBLE_EQ(single.max, 7);
  const auto empty = quartiles({});
  EXPECT_EQ(empty.n, 0u);
}

TEST(Imbalance, Factor) {
  EXPECT_DOUBLE_EQ(imbalance_factor({10, 10, 10, 10}), 1.0);
  EXPECT_DOUBLE_EQ(imbalance_factor({40, 0, 0, 0}), 4.0);
  EXPECT_DOUBLE_EQ(imbalance_factor({}), 1.0);
  EXPECT_DOUBLE_EQ(imbalance_factor({0, 0}), 1.0);
}

// --------------------------------------------------------------- profiler

TEST(Profiler, LogicalMatrixCountsEverySend) {
  Profiler prof(all_on());
  shmem::run(cfg_of(4, 2), [] {
    ap::actor::Actor<std::int64_t> a;
    a.mb[0].process = [](std::int64_t, int) {};
    auto* p = dynamic_cast<Profiler*>(ap::actor::actor_observer());
    ASSERT_NE(p, nullptr);
    p->epoch_begin();
    ap::hclib::finish([&] {
      a.start();
      // PE me sends exactly me+1 messages to each destination.
      for (int d = 0; d < shmem::n_pes(); ++d)
        for (int k = 0; k <= shmem::my_pe(); ++k) a.send(1, d);
      a.done(0);
    });
    p->epoch_end();
  });
  const CommMatrix m = prof.logical_matrix();
  ASSERT_EQ(m.size(), 4);
  for (int s = 0; s < 4; ++s)
    for (int d = 0; d < 4; ++d)
      EXPECT_EQ(m.at(s, d), static_cast<std::uint64_t>(s + 1))
          << s << "->" << d;
  EXPECT_EQ(m.total(), (1u + 2u + 3u + 4u) * 4u);
}

TEST(Profiler, LogicalEventsCarryNodeIds) {
  Profiler prof(all_on());
  shmem::run(cfg_of(4, 2), [] {
    ap::actor::Actor<std::int64_t> a;
    a.mb[0].process = [](std::int64_t, int) {};
    auto* p = dynamic_cast<Profiler*>(ap::actor::actor_observer());
    p->epoch_begin();
    ap::hclib::finish([&] {
      a.start();
      if (shmem::my_pe() == 0) a.send(1, 3);
      a.done(0);
    });
    p->epoch_end();
  });
  const LogicalSendView view = prof.logical_events(0);
  ASSERT_EQ(view.size(), 1u);
  const std::vector<LogicalSendRecord> evs = view.records();
  ASSERT_EQ(evs.size(), 1u);
  EXPECT_EQ(evs[0].src_node, 0);
  EXPECT_EQ(evs[0].src_pe, 0);
  EXPECT_EQ(evs[0].dst_node, 1);  // PE 3 with ppn=2 lives on node 1
  EXPECT_EQ(evs[0].dst_pe, 3);
  EXPECT_EQ(evs[0].msg_bytes, sizeof(std::int64_t));
}

TEST(Profiler, OverallPartitionIsExact) {
  Profiler prof(all_on());
  shmem::run(cfg_of(4, 2), [] {
    auto* p = dynamic_cast<Profiler*>(ap::actor::actor_observer());
    p->epoch_begin();
    const auto r = ap::apps::histogram_actor(64, 2000);
    (void)r;
    p->epoch_end();
  });
  // histogram_actor ran its own barriers inside our epoch; totals still
  // partition exactly because COMM absorbs everything outside MAIN/PROC.
  for (const OverallRecord& r : prof.overall()) {
    EXPECT_EQ(r.t_main + r.t_proc + r.t_comm(), r.t_total) << "PE " << r.pe;
    EXPECT_GT(r.t_total, 0u);
    EXPECT_GT(r.t_main, 0u);
    EXPECT_GT(r.t_proc, 0u);
    EXPECT_NEAR(r.rel_main() + r.rel_proc() + r.rel_comm(), 1.0, 1e-12);
  }
}

TEST(Profiler, PapiTotalsReflectWorkImbalance) {
  Profiler prof(all_on());
  shmem::run(cfg_of(4, 4), [] {
    ap::actor::Actor<std::int64_t> a;
    a.mb[0].process = [](std::int64_t, int) {};
    auto* p = dynamic_cast<Profiler*>(ap::actor::actor_observer());
    p->epoch_begin();
    ap::hclib::finish([&] {
      a.start();
      // PE0 does 50x the work of everyone else (self-sends, so both the
      // construct and the handle cost stay on the sender).
      const int k = shmem::my_pe() == 0 ? 5000 : 100;
      for (int i = 0; i < k; ++i) a.send(1, shmem::my_pe());
      a.done(0);
    });
    p->epoch_end();
  });
  const auto totals = prof.papi_totals(ap::papi::Event::TOT_INS);
  ASSERT_EQ(totals.size(), 4u);
  for (int pe = 1; pe < 4; ++pe) {
    EXPECT_GT(totals[0], 3 * totals[static_cast<std::size_t>(pe)])
        << "PE0 must dominate instruction counts";
  }
  EXPECT_THROW(prof.papi_totals(ap::papi::Event::L2_DCM),
               std::invalid_argument);
}

// The paper's limit of four concurrently recorded PAPI events
// (papi::kMaxEventsPerSet) is the size of Config::papi_events: four
// configured events give four counter columns in PEi_PAPI.*, named and
// ordered as configured, in both trace formats.
TEST(Profiler, FourPapiEventsWriteFourCounterColumns) {
  using ap::papi::Event;
  const ap::testutil::TestTmpDir tmp;
  Config c = all_on();
  c.papi_events = {Event::TOT_INS, Event::LST_INS, Event::L1_DCM,
                   Event::BR_MSP};
  static_assert(std::tuple_size_v<decltype(c.papi_events)> ==
                ap::papi::kMaxEventsPerSet);
  ASSERT_EQ(c.num_papi_events(), 4);
  Profiler prof(c);
  shmem::run(cfg_of(2, 2), [] {
    ap::actor::Actor<std::int64_t> a;
    a.mb[0].process = [](std::int64_t, int) {
      ap::papi::account_random_access(std::size_t{1} << 20, 64);
    };
    auto* p = dynamic_cast<Profiler*>(ap::actor::actor_observer());
    p->epoch_begin();
    ap::hclib::finish([&] {
      a.start();
      for (int i = 0; i < 100; ++i) a.send(1, 1 - shmem::my_pe());
      a.done(0);
    });
    p->epoch_end();
  });
  const std::vector<PapiSegmentRecord> rows = prof.papi_segments(0);
  ASSERT_FALSE(rows.empty());
  for (std::size_t k = 0; k < 4; ++k) {
    std::uint64_t sum = 0;
    for (const PapiSegmentRecord& r : rows) sum += r.counters[k];
    EXPECT_GT(sum, 0u) << "counter column " << k;
  }

  for (const TraceFormat format : {TraceFormat::csv, TraceFormat::binary}) {
    const char* name = format == TraceFormat::binary ? "binary" : "csv";
    c.trace_format = format;
    c.trace_dir = tmp / name;
    io::write_all(prof, c);
    const io::TraceDir t = io::load_trace_dir(c.trace_dir, 2);
    EXPECT_EQ(t.papi.at(0), rows) << name;
  }
  std::ifstream csv(tmp / "csv" / "PE0_PAPI.csv");
  std::string header;
  ASSERT_TRUE(std::getline(csv, header));
  std::size_t at = 0;
  for (const Event e : c.papi_events) {
    const std::size_t pos = header.find(ap::papi::name(e), at);
    ASSERT_NE(pos, std::string::npos) << header;
    at = pos;
  }
  EXPECT_EQ(header.find("PAPI_", at + 1 + ap::papi::name(Event::BR_MSP).size()),
            std::string::npos)
      << "exactly four counter columns: " << header;
}

TEST(Profiler, PapiSegmentsSeparateMainAndProc) {
  Profiler prof(all_on());
  shmem::run(cfg_of(2, 2), [] {
    ap::actor::Actor<std::int64_t> a;
    a.mb[0].process = [](std::int64_t, int) {};
    auto* p = dynamic_cast<Profiler*>(ap::actor::actor_observer());
    p->epoch_begin();
    ap::hclib::finish([&] {
      a.start();
      for (int i = 0; i < 100; ++i) a.send(1, 1 - shmem::my_pe());
      a.done(0);
    });
    p->epoch_end();
  });
  const auto rows = prof.papi_segments(0);
  std::uint64_t main_sends = 0, proc_handles = 0;
  bool saw_main = false, saw_proc = false;
  for (const auto& r : rows) {
    EXPECT_EQ(r.src_pe, 0);
    if (r.is_proc) {
      saw_proc = true;
      proc_handles += r.num_sends;
      EXPECT_EQ(r.dst_pe, 0);  // handler rows are self rows
    } else {
      saw_main = true;
      main_sends += r.num_sends;
      EXPECT_EQ(r.dst_pe, 1);
    }
    EXPECT_EQ(r.pkt_bytes, sizeof(std::int64_t));
  }
  EXPECT_TRUE(saw_main);
  EXPECT_TRUE(saw_proc);
  EXPECT_EQ(main_sends, 100u);
  EXPECT_EQ(proc_handles, 100u);  // PE0 handles PE1's 100 sends
}

TEST(Profiler, PhysicalMatrixMatchesTopology) {
  Profiler prof(all_on());
  shmem::run(cfg_of(4, 2), [] {
    ap::convey::Options o;
    o.buffer_bytes = 64;
    ap::actor::Actor<std::int64_t> a{o};
    a.mb[0].process = [](std::int64_t, int) {};
    auto* p = dynamic_cast<Profiler*>(ap::actor::actor_observer());
    p->epoch_begin();
    ap::hclib::finish([&] {
      a.start();
      for (int i = 0; i < 400; ++i) a.send(1, i % 4);
      a.done(0);
    });
    p->epoch_end();
  });
  const CommMatrix local = prof.physical_matrix(ap::convey::SendType::local_send);
  const CommMatrix nbi = prof.physical_matrix(ap::convey::SendType::nonblock_send);
  ap::shmem::Topology topo(4, 2);
  EXPECT_GT(local.total(), 0u);
  EXPECT_GT(nbi.total(), 0u);
  for (int s = 0; s < 4; ++s) {
    for (int d = 0; d < 4; ++d) {
      if (local.at(s, d) > 0) {
        EXPECT_TRUE(topo.same_node(s, d));
      }
      if (nbi.at(s, d) > 0) {
        EXPECT_FALSE(topo.same_node(s, d));
        EXPECT_EQ(topo.local_rank(s), topo.local_rank(d));  // column hop
      }
    }
  }
}

TEST(Profiler, DisabledConfigCollectsNothing) {
  Config c;  // everything off (no macros in the test build)
  c.logical = c.papi = c.overall = c.physical = false;
  Profiler prof(c);
  shmem::run(cfg_of(2, 2), [] {
    auto* p = dynamic_cast<Profiler*>(ap::actor::actor_observer());
    p->epoch_begin();
    ap::apps::histogram_actor(16, 200);
    p->epoch_end();
  });
  EXPECT_EQ(prof.logical_matrix().total(), 0u);
  EXPECT_EQ(prof.physical_matrix().total(), 0u);
  for (const auto& r : prof.overall()) {
    EXPECT_EQ(r.t_main, 0u);
    EXPECT_EQ(r.t_proc, 0u);
  }
}

TEST(Profiler, EpochMisuseThrows) {
  Profiler prof(all_on());
  shmem::run(cfg_of(1), [] {
    auto* p = dynamic_cast<Profiler*>(ap::actor::actor_observer());
    EXPECT_THROW(p->epoch_end(), std::logic_error);
    p->epoch_begin();
    EXPECT_THROW(p->epoch_begin(), std::logic_error);
    p->epoch_end();
    EXPECT_THROW(p->epoch_end(), std::logic_error);
  });
}

TEST(Profiler, RepeatedEpochsAccumulate) {
  Profiler prof(all_on());
  shmem::run(cfg_of(2, 2), [] {
    auto* p = dynamic_cast<Profiler*>(ap::actor::actor_observer());
    for (int round = 0; round < 3; ++round) {
      ap::actor::Actor<std::int64_t> a;
      a.mb[0].process = [](std::int64_t, int) {};
      p->epoch_begin();
      ap::hclib::finish([&] {
        a.start();
        for (int i = 0; i < 10; ++i) a.send(1, 1 - shmem::my_pe());
        a.done(0);
      });
      p->epoch_end();
    }
  });
  EXPECT_EQ(prof.logical_matrix().total(), 2u * 3u * 10u);
  for (const auto& r : prof.overall()) EXPECT_GT(r.t_total, 0u);
}

TEST(Profiler, MaxEventsCapBoundsMemoryButNotMatrix) {
  Config c = all_on();
  c.max_events_per_pe = 10;
  Profiler prof(c);
  shmem::run(cfg_of(2, 2), [] {
    ap::actor::Actor<std::int64_t> a;
    a.mb[0].process = [](std::int64_t, int) {};
    auto* p = dynamic_cast<Profiler*>(ap::actor::actor_observer());
    p->epoch_begin();
    ap::hclib::finish([&] {
      a.start();
      for (int i = 0; i < 100; ++i) a.send(1, 1 - shmem::my_pe());
      a.done(0);
    });
    p->epoch_end();
  });
  EXPECT_EQ(prof.logical_events(0).size(), 10u);     // capped
  EXPECT_EQ(prof.logical_matrix().row_sums()[0], 100u);  // not capped
}

// A send to a PE that does not exist throws before any observer sees it:
// it is not logged, counted or charged, and the trace stays writable.
TEST(Profiler, SendToMissingPeThrowsAndRecordsNothing) {
  Profiler prof(all_on());
  shmem::run(cfg_of(4, 2), [&prof] {
    ap::actor::Actor<std::int64_t> a;
    a.mb[0].process = [](std::int64_t, int) {};
    prof.epoch_begin();
    ap::hclib::finish([&] {
      a.start();
      if (shmem::my_pe() == 0) {
        a.send(1, 3);
        a.send(1, 3);
        const std::size_t kept = prof.logical_events(0).size();
        const std::vector<PapiSegmentRecord> rows = prof.papi_segments(0);
        const ap::papi::Counters charged = ap::papi::counters();
        EXPECT_THROW(a.send(1, -1), std::out_of_range);
        EXPECT_THROW(a.send(1, shmem::n_pes()), std::out_of_range);
        EXPECT_EQ(prof.logical_events(0).size(), kept);
        EXPECT_EQ(prof.papi_segments(0), rows);
        EXPECT_EQ(ap::papi::counters(), charged);
      }
      a.done(0);
    });
    prof.epoch_end();
  });
  const CommMatrix m = prof.logical_matrix();
  EXPECT_EQ(m.total(), 2u);
  EXPECT_EQ(m.at(0, 3), 2u);
  std::uint64_t sent = 0;
  for (int pe = 0; pe < 4; ++pe) {
    for (const SuperstepRecord& s : prof.supersteps(pe)) sent += s.msgs_sent;
    EXPECT_NO_THROW((void)prof.papi_segments(pe)) << "PE " << pe;
  }
  EXPECT_EQ(sent, 2u);
  EXPECT_EQ(prof.logical_events(0).records().size(), 2u);
}

// ------------------------------------------------------ logical send runs

/// One scripted send of PE 0: to `dst`, from the 16-byte actor when `wide`,
/// else from the 8-byte one.
struct ScriptedSend {
  int dst;
  bool wide;
};

struct WideMsg {
  std::int64_t a, b;
};

/// A PEi_send row of PE 0 in the 4-PE, 2-node launch of kept_sends().
LogicalSendRecord row_to(int dst, std::uint32_t bytes) {
  return LogicalSendRecord{0, 0, dst / 2, dst, bytes};
}

/// Runs `script` on PE 0 of a 4-PE, 2-node launch profiled under `c`,
/// checks that PE0_send.csv and PE0_send.apt load back to the records the
/// view expands, and returns the view's records and run count.
std::pair<std::vector<LogicalSendRecord>, std::size_t> kept_sends(
    Config c, const std::vector<ScriptedSend>& script) {
  const ap::testutil::TestTmpDir tmp;
  Profiler prof(c);
  shmem::run(cfg_of(4, 2), [&] {
    ap::actor::Actor<std::int64_t> narrow;
    ap::actor::Actor<WideMsg> wide;
    narrow.mb[0].process = [](std::int64_t, int) {};
    wide.mb[0].process = [](WideMsg, int) {};
    prof.epoch_begin();
    ap::hclib::finish([&] {
      narrow.start();
      wide.start();
      if (shmem::my_pe() == 0)
        for (const ScriptedSend& s : script) {
          if (s.wide)
            wide.send(WideMsg{1, 2}, s.dst);
          else
            narrow.send(1, s.dst);
        }
      narrow.done(0);
      wide.done(0);
    });
    prof.epoch_end();
  });
  EXPECT_EQ(prof.logical_matrix().row_sums()[0], script.size())
      << "the matrix counts every send";
  const LogicalSendView view = prof.logical_events(0);
  std::vector<LogicalSendRecord> records = view.records();
  EXPECT_EQ(view.size(), records.size());
  for (const TraceFormat format : {TraceFormat::csv, TraceFormat::binary}) {
    const char* name = format == TraceFormat::binary ? "binary" : "csv";
    c.trace_format = format;
    c.trace_dir = tmp / name;
    io::write_all(prof, c);
    const io::TraceDir t = io::load_trace_dir(c.trace_dir, 4);
    EXPECT_EQ(t.logical.at(0).records(), records) << name;
  }
  return {std::move(records), view.runs().size()};
}

TEST(LogicalRuns, AlternatingMessageSizesSplitRuns) {
  const auto [records, runs] = kept_sends(
      all_on(), {{1, false}, {1, true}, {1, false}, {1, true}, {1, true},
                 {1, false}, {1, false}, {1, false}});
  const std::vector<LogicalSendRecord> expected{
      row_to(1, 8),  row_to(1, 16), row_to(1, 8), row_to(1, 16),
      row_to(1, 16), row_to(1, 8),  row_to(1, 8), row_to(1, 8)};
  EXPECT_EQ(records, expected);
  EXPECT_EQ(runs, 5u);
}

TEST(LogicalRuns, InterleavedDestinationsSplitRuns) {
  const auto [records, runs] = kept_sends(
      all_on(), {{1, false}, {2, false}, {2, false}, {3, false}, {1, false},
                 {1, false}, {0, false}, {3, false}});
  const std::vector<LogicalSendRecord> expected{
      row_to(1, 8), row_to(2, 8), row_to(2, 8), row_to(3, 8),
      row_to(1, 8), row_to(1, 8), row_to(0, 8), row_to(3, 8)};
  EXPECT_EQ(records, expected);
  EXPECT_EQ(runs, 6u);
}

// Sampling keeps sends 0, 3, 6 and 9. A sampled-away send to the run's
// own PE does not extend it, and one to another PE does not split it.
TEST(LogicalRuns, SamplingKeepsEveryThirdSend) {
  Config c = all_on();
  c.sample_every = 3;
  const auto [records, runs] = kept_sends(
      c, {{1, false}, {1, false}, {2, false}, {1, false}, {3, false},
          {3, false}, {1, false}, {2, true}, {2, false}, {3, true}});
  const std::vector<LogicalSendRecord> expected{
      row_to(1, 8), row_to(1, 8), row_to(1, 8), row_to(3, 16)};
  EXPECT_EQ(records, expected);
  EXPECT_EQ(runs, 2u);
}

// The cap counts records, not runs: it stops the log inside the run of
// sends to PE 2.
TEST(LogicalRuns, CapStopsInTheMiddleOfARun) {
  Config c = all_on();
  c.max_events_per_pe = 5;
  const auto [records, runs] = kept_sends(
      c, {{1, false}, {1, false}, {2, false}, {2, false}, {2, false},
          {2, false}, {2, false}, {3, false}});
  const std::vector<LogicalSendRecord> expected{
      row_to(1, 8), row_to(1, 8), row_to(2, 8), row_to(2, 8), row_to(2, 8)};
  EXPECT_EQ(records, expected);
  EXPECT_EQ(runs, 2u);
}

// A loaded run counts in 32 bits: a longer stretch of one row splits, and
// the log still equals one built from the same records another way.
TEST(LogicalLog, RunPastThirtyTwoBitsSplits) {
  const LogicalSendRecord row{0, 1, 0, 2, 8};
  const std::uint64_t n = std::uint64_t{LogicalSendLog::kMaxRun} + 6;
  LogicalSendLog log;
  log.append(row, n);
  EXPECT_EQ(log.size(), n);
  ASSERT_EQ(log.runs().size(), 2u);
  EXPECT_EQ(log.runs()[0].count, LogicalSendLog::kMaxRun);
  EXPECT_EQ(log.runs()[1].count, 6u);
  LogicalSendLog parts;
  parts.append(row, 5);
  LogicalSendLog rest;
  rest.append(row, n - 5);
  parts.append(rest);
  EXPECT_EQ(parts, log);
}

// The matrices add each run's count once and skip out-of-range PE ids, as
// summing the expanded records does.
TEST(LogicalLog, MatricesEqualTheSumOfRecords) {
  constexpr int kPes = 5;
  ap::graph::SplitMix64 rng(17);
  io::Sink csv;
  std::vector<LogicalSendRecord> rows;
  while (rows.size() < 20000) {
    // Ids from -2 to kPes + 1, so some fall outside the matrix.
    const LogicalSendRecord r{0, static_cast<int>(rng.next_below(kPes + 4)) - 2,
                              0, static_cast<int>(rng.next_below(kPes + 4)) - 2,
                              8};
    rows.insert(rows.end(), 1 + rng.next_below(40), r);
  }
  io::write_csv(csv, rows);
  io::TraceDir t;
  t.num_pes = kPes;
  t.logical.resize(1);
  io::read_into(csv.str(), t.logical[0]);
  ASSERT_EQ(t.logical[0].records(), rows);
  ASSERT_LT(t.logical[0].runs().size(), rows.size());

  CommMatrix expected(kPes);
  for (const LogicalSendRecord& r : t.logical[0].records())
    if (r.src_pe >= 0 && r.src_pe < kPes && r.dst_pe >= 0 && r.dst_pe < kPes)
      expected.add(r.src_pe, r.dst_pe);
  ASSERT_GT(expected.total(), 0u);
  ASSERT_LT(expected.total(), rows.size());
  EXPECT_EQ(t.logical_matrix(), expected);
  EXPECT_EQ(t.logical_sparse().dense(), expected);
}

// ----------------------------------------------------------- trace files

/// Write `rows` as CSV and read them back.
template <class Rec>
std::vector<Rec> csv_round_trip(const std::vector<Rec>& rows,
                                const io::FileMeta& meta = {}) {
  io::Sink s;
  io::write_csv(s, rows, meta);
  std::vector<Rec> back;
  io::read_into(s.str(), back);
  return back;
}

TEST(TraceIo, LogicalRoundTrip) {
  std::vector<LogicalSendRecord> evs{{0, 1, 1, 3, 8}, {0, 0, 0, 1, 16}};
  EXPECT_EQ(csv_round_trip(evs), evs);
}

TEST(TraceIo, PhysicalRoundTrip) {
  std::vector<PhysicalRecord> evs{
      {ap::convey::SendType::local_send, 4096, 0, 1},
      {ap::convey::SendType::nonblock_send, 2048, 1, 5},
      {ap::convey::SendType::nonblock_progress, 8, 1, 5}};
  EXPECT_EQ(csv_round_trip(evs), evs);
}

TEST(TraceIo, OverallRoundTrip) {
  std::vector<OverallRecord> recs;
  recs.push_back(OverallRecord{0, 100, 300, 1000});
  recs.push_back(OverallRecord{1, 50, 150, 400});
  io::Sink s;
  io::write_overall(s, recs);
  std::vector<OverallRecord> parsed;
  io::parse_overall_into(s.str(), parsed);
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0], recs[0]);
  EXPECT_EQ(parsed[1], recs[1]);
  EXPECT_EQ(parsed[0].t_comm(), 600u);
}

TEST(TraceIo, PapiRoundTrip) {
  Config cfg = Config::all_enabled();
  std::vector<PapiSegmentRecord> rows(2);
  rows[0] = {0, 1, 0, 2, 8, 0, 42, {1000, 500, 0, 0}, false};
  rows[1] = {0, 1, 0, 1, 8, 1, 13, {99, 7, 0, 0}, true};
  const auto parsed = csv_round_trip(rows, io::FileMeta::papi(cfg));
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0], rows[0]);
  EXPECT_EQ(parsed[1], rows[1]);
}

TEST(TraceIo, MalformedInputThrowsWithLineNumber) {
  std::vector<LogicalSendRecord> logical;
  try {
    io::read_into("1,2,3\n", logical);
    FAIL() << "expected parse error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 1"), std::string::npos);
  }
  std::vector<PhysicalRecord> physical;
  EXPECT_THROW(io::read_into("weird_send,1,0,0\n", physical),
               std::runtime_error);
  EXPECT_THROW(io::read_into("a,b,c,d,e\n", logical), std::runtime_error);
}

// Shards are mapped to PE indexes by *constructing* each expected name
// (PE<i>_send.csv), never by sorting a directory listing — at 4-digit PE
// counts "PE1000" sorts lexicographically before "PE2", so a sort-order
// assumption would misattribute shards. Sparse 1005-PE fixture: only a
// handful of shards exist, each carrying a destination that names its PE.
TEST(TraceIo, FourDigitShardNamesMapToTheRightPes) {
  const ap::testutil::TestTmpDir tmp;
  const fs::path dir = tmp / "actorprof_4digit";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const auto write_shard = [&](int pe, int dst) {
    io::Sink s;
    io::write_csv(s, std::vector<LogicalSendRecord>{{0, pe, 0, dst, 8}});
    std::ofstream(dir / io::file_name({io::BinKind::send, pe})) << s.str();
  };
  write_shard(2, 3);
  write_shard(10, 4);     // "PE10" sorts before "PE2"
  write_shard(1000, 5);   // ... and so does "PE1000"
  write_shard(1004, 6);
  {
    std::ofstream os(dir / io::kManifestFile);
    os << "num_pes 1005\n";
  }
  EXPECT_EQ(io::detect_num_pes(dir), 1005);

  io::LoadOptions lo;
  lo.tolerate_partial = true;  // most shards are absent on purpose
  const auto t = io::load_trace_dir(dir, 1005, lo);
  EXPECT_EQ(t.num_pes, 1005);
  ASSERT_EQ(t.logical.size(), 1005u);
  ASSERT_EQ(t.logical[2].size(), 1u);
  EXPECT_EQ(t.logical[2].records()[0].dst_pe, 3);
  ASSERT_EQ(t.logical[10].size(), 1u);
  EXPECT_EQ(t.logical[10].records()[0].dst_pe, 4);
  ASSERT_EQ(t.logical[1000].size(), 1u);
  EXPECT_EQ(t.logical[1000].records()[0].dst_pe, 5);
  ASSERT_EQ(t.logical[1004].size(), 1u);
  EXPECT_EQ(t.logical[1004].records()[0].dst_pe, 6);
  EXPECT_TRUE(t.logical[100].empty());  // a PE with no shard stays empty
  // The sparse aggregation sees the same attribution.
  const auto m = t.logical_sparse();
  EXPECT_EQ(m.size(), 1005);
  EXPECT_EQ(m.at(1000, 5), 1u);
  EXPECT_EQ(m.at(2, 3), 1u);
  EXPECT_EQ(m.total(), 4u);
}

TEST(TraceIo, FullDirectoryRoundTrip) {
  const ap::testutil::TestTmpDir tmp;
  const fs::path dir = tmp / "actorprof_trace_roundtrip";
  fs::remove_all(dir);
  Config c = Config::all_enabled();
  c.trace_dir = dir;
  Profiler prof(c);
  shmem::run(cfg_of(4, 2), [] {
    const auto edges = ap::graph::rmat_edges([] {
      ap::graph::RmatParams p;
      p.scale = 6;
      p.edge_factor = 6;
      return p;
    }());
    const auto L = ap::graph::Csr::from_edges(1 << 6, edges, true);
    ap::graph::CyclicDistribution dist(shmem::n_pes());
    auto* p = dynamic_cast<Profiler*>(ap::actor::actor_observer());
    ap::apps::count_triangles_actor(L, dist, p);
  });
  prof.write_traces();

  ASSERT_TRUE(fs::exists(dir / "PE0_send.csv"));
  ASSERT_TRUE(fs::exists(dir / "PE3_PAPI.csv"));
  ASSERT_TRUE(fs::exists(dir / "overall.txt"));
  ASSERT_TRUE(fs::exists(dir / "physical.txt"));

  const io::TraceDir t = io::load_trace_dir(dir, 4);
  EXPECT_EQ(t.logical_matrix(), prof.logical_matrix());
  EXPECT_EQ(t.physical_matrix(), prof.physical_matrix());
  ASSERT_EQ(t.overall.size(), 4u);
  const auto mem = prof.overall();
  for (int pe = 0; pe < 4; ++pe) {
    EXPECT_EQ(t.overall[static_cast<std::size_t>(pe)].t_main,
              mem[static_cast<std::size_t>(pe)].t_main);
    EXPECT_EQ(t.overall[static_cast<std::size_t>(pe)].t_comm(),
              mem[static_cast<std::size_t>(pe)].t_comm());
  }
}

// ------------------------------------------------- crash-safe write_all

/// Give `prof` real (if tiny) per-PE data: a 2-PE launch with one empty
/// epoch each, enough for write_all to emit every file kind.
void tiny_profiled_run() {
  shmem::run(cfg_of(2), [] {
    auto* p = dynamic_cast<Profiler*>(ap::actor::actor_observer());
    p->epoch_begin();
    p->epoch_end();
  });
}

TEST(TraceIoCrashSafe, UnwritableTraceDirThrowsNamedError) {
  const ap::testutil::TestTmpDir tmp;
  const fs::path blocker = tmp / "ts_blocker";
  fs::remove_all(blocker);
  { std::ofstream(blocker) << "not a directory"; }
  Config c = Config::all_enabled();
  c.trace_dir = blocker / "sub";  // create_directories must fail: parent is a file
  Profiler prof(c);
  tiny_profiled_run();
  try {
    io::write_all(prof, c);
    FAIL() << "expected write_all to throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("cannot create trace dir"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find((blocker / "sub").string()),
              std::string::npos);
  }
}

TEST(TraceIoCrashSafe, PerFileFailuresAreAggregatedIntoOneError) {
  const ap::testutil::TestTmpDir tmp;
  const fs::path dir = tmp / "ts_aggfail";
  fs::remove_all(dir);
  fs::create_directories(dir);
  // A directory squatting on the .tmp name makes that one file unwritable;
  // everything else must still land, and the error must name every victim.
  fs::create_directories(dir / "overall.txt.tmp");
  fs::create_directories(dir / "physical.txt.tmp");
  Config c = Config::all_enabled();
  c.trace_dir = dir;
  Profiler prof(c);
  tiny_profiled_run();
  try {
    io::write_all(prof, c);
    FAIL() << "expected write_all to throw";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("failed to write 2 file(s)"), std::string::npos) << msg;
    EXPECT_NE(msg.find("overall.txt"), std::string::npos);
    EXPECT_NE(msg.find("physical.txt"), std::string::npos);
  }
  // The per-PE files were written despite the failures.
  EXPECT_TRUE(fs::exists(dir / "PE0_send.csv"));
  EXPECT_TRUE(fs::exists(dir / "PE1_PAPI.csv"));
}

TEST(TraceIoCrashSafe, ManifestRoundTripAndChecksums) {
  const ap::testutil::TestTmpDir tmp;
  const fs::path dir = tmp / "ts_manifest";
  fs::remove_all(dir);
  Config c = Config::all_enabled();
  c.trace_dir = dir;
  Profiler prof(c);
  tiny_profiled_run();
  io::write_all(prof, c);

  ASSERT_TRUE(fs::exists(dir / io::kManifestFile));
  std::string manifest;
  ASSERT_TRUE(io::read_file(dir / io::kManifestFile, manifest));
  const io::Manifest m = io::parse_manifest(manifest);
  EXPECT_EQ(m.num_pes, 2);
  EXPECT_TRUE(m.dead_pes.empty());
  ASSERT_FALSE(m.files.empty());
  for (const auto& e : m.files) {
    std::ifstream is(dir / e.file, std::ios::binary);
    ASSERT_TRUE(is) << e.file;
    std::stringstream ss;
    ss << is.rdbuf();
    const std::string body = ss.str();
    EXPECT_EQ(body.size(), e.bytes) << e.file;
    EXPECT_EQ(io::fnv1a64(body.data(), body.size()), e.fnv1a) << e.file;
  }
  // No stray .tmp siblings after a clean write.
  for (const auto& entry : fs::directory_iterator(dir))
    EXPECT_NE(entry.path().extension(), ".tmp") << entry.path();
}

TEST(TraceIoCrashSafe, TolerantLoadKeepsPrefixOfTruncatedFile) {
  const ap::testutil::TestTmpDir tmp;
  const fs::path dir = tmp / "ts_truncated";
  fs::remove_all(dir);
  fs::create_directories(dir);
  {
    std::ofstream os(dir / "PE0_send.csv");
    os << "# header\n0,0,0,1,8\n0,0,0,2,8\n0,0,0,3";  // truncated mid-line
    std::ofstream o2(dir / "PE1_send.csv");
    o2 << "# header\n0,1,0,0,8\n";
  }
  // Strict load reports the damaged file by name and line.
  try {
    (void)io::load_trace_dir(dir, 2);
    FAIL() << "expected strict load to throw";
  } catch (const io::TraceParseError& e) {
    EXPECT_EQ(e.line_no(), 4u);
    EXPECT_NE(std::string(e.what()).find("PE0_send.csv"), std::string::npos);
  }
  // Tolerant load keeps the two clean records and records the issue.
  io::LoadOptions lo;
  lo.tolerate_partial = true;
  const io::TraceDir t = io::load_trace_dir(dir, 2, lo);
  EXPECT_EQ(t.logical[0].size(), 2u);
  EXPECT_EQ(t.logical[1].size(), 1u);
  ASSERT_EQ(t.issues.size(), 1u);
  EXPECT_EQ(t.issues[0].file, "PE0_send.csv");
  EXPECT_EQ(t.issues[0].line_no, 4u);
}

TEST(TraceIoCrashSafe, TolerantLoadFlagsChecksumMismatchAndMissingFiles) {
  const ap::testutil::TestTmpDir tmp;
  const fs::path dir = tmp / "ts_chksum";
  fs::remove_all(dir);
  Config c = Config::all_enabled();
  c.trace_dir = dir;
  Profiler prof(c);
  tiny_profiled_run();
  io::write_all(prof, c);

  // Simulate a kill that caught PE1's files mid-write: truncate one file
  // (checksum now disagrees with the MANIFEST) and delete another
  // (MANIFEST-listed => reported missing).
  fs::resize_file(dir / "PE1_send.csv",
                  fs::file_size(dir / "PE1_send.csv") / 2);
  fs::remove(dir / "PE1_PAPI.csv");

  io::LoadOptions lo;
  lo.tolerate_partial = true;
  const io::TraceDir t = io::load_trace_dir(dir, 2, lo);
  bool saw_checksum = false, saw_missing = false;
  for (const auto& i : t.issues) {
    if (i.file == "PE1_send.csv" &&
        i.message.find("checksum mismatch") != std::string::npos)
      saw_checksum = true;
    if (i.file == "PE1_PAPI.csv" &&
        i.message.find("missing") != std::string::npos)
      saw_missing = true;
  }
  EXPECT_TRUE(saw_checksum);
  EXPECT_TRUE(saw_missing);
  // PE0's files are untouched: no issue may name them.
  for (const auto& i : t.issues)
    EXPECT_EQ(i.file.find("PE0"), std::string::npos) << i.file;
}

TEST(ConfigTest, EnvOverrides) {
  setenv("ACTORPROF_TRACE", "1", 1);
  setenv("ACTORPROF_TRACE_DIR", "/tmp/xyz_trace", 1);
  const Config c = Config::from_env();
  EXPECT_TRUE(c.logical);
  EXPECT_EQ(c.trace_dir, fs::path("/tmp/xyz_trace"));
  unsetenv("ACTORPROF_TRACE");
  unsetenv("ACTORPROF_TRACE_DIR");
  EXPECT_EQ(Config::all_enabled().num_papi_events(), 2);
}

TEST(ConfigTest, CrashSafeDefaultsFollowKillEnv) {
  EXPECT_FALSE(Config::from_env().crash_safe);
  setenv("ACTORPROF_FI_KILL_PE", "1", 1);
  EXPECT_TRUE(Config::from_env().crash_safe);
  setenv("ACTORPROF_CRASH_SAFE", "0", 1);
  EXPECT_FALSE(Config::from_env().crash_safe);
  unsetenv("ACTORPROF_FI_KILL_PE");
  setenv("ACTORPROF_CRASH_SAFE", "1", 1);
  EXPECT_TRUE(Config::from_env().crash_safe);
  setenv("ACTORPROF_CRASH_SAFE", "maybe", 1);
  EXPECT_THROW((void)Config::from_env(), std::invalid_argument);
  unsetenv("ACTORPROF_CRASH_SAFE");
}

}  // namespace
