// BSP conformance checker tests (docs/CHECKING.md): happens-before unit
// coverage of every violation kind, report rendering and the check.csv
// round trip, the strict ACTORPROF_CHECK env parse, seeded violation
// programs on a live world, and the clean-run guarantee across the seven
// example kernels.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "apps/histogram.hpp"
#include "apps/index_gather.hpp"
#include "apps/jaccard.hpp"
#include "apps/pagerank.hpp"
#include "apps/randperm.hpp"
#include "apps/toposort.hpp"
#include "apps/triangle.hpp"
#include "check/checker.hpp"
#include "core/profiler.hpp"
#include "core/trace_io.hpp"
#include "graph/csr.hpp"
#include "graph/distribution.hpp"
#include "graph/rmat.hpp"
#include "runtime/scheduler.hpp"
#include "shmem/shmem.hpp"
#include "test_tmpdir.hpp"

namespace {

namespace fs = std::filesystem;
using namespace ap;
using check::Checker;
using check::Violation;
using Kind = check::Violation::Kind;

rt::LaunchConfig cfg_of(int pes, int ppn = 0) {
  rt::LaunchConfig cfg;
  cfg.num_pes = pes;
  cfg.pes_per_node = ppn;
  cfg.symm_heap_bytes = 16 << 20;
  return cfg;
}

prof::Config check_config() {
  prof::Config c;
  c.check = true;
  return c;
}

std::string render_text(const std::vector<Violation>& v,
                        std::uint64_t dropped = 0) {
  std::ostringstream os;
  check::write_text(os, v, dropped);
  return os.str();
}

void expect_clean(const prof::Profiler& prof) {
  EXPECT_TRUE(prof.bsp_violations().empty())
      << render_text(prof.bsp_violations(), prof.bsp_violations_dropped());
  EXPECT_EQ(prof.bsp_violations_dropped(), 0u);
}

// ------------------------------------------------------------ unit: kinds

TEST(CheckReport, KindStringsRoundTrip) {
  // check.csv names every kind with to_string, and the loader parses the
  // names back.
  std::vector<Violation> all;
  for (Kind k : {Kind::WriteReadRace, Kind::ReadBeforeQuiet,
                 Kind::UnquiescedAtBarrier, Kind::NbiReordered,
                 Kind::NbiDuplicated, Kind::QuietInterrupted,
                 Kind::ApiMisuse}) {
    Violation v;
    v.kind = k;
    all.push_back(v);
  }
  prof::io::Sink s;
  prof::io::write_csv(s, all, {});
  std::vector<Violation> back;
  prof::io::read_into(s.str(), back);
  ASSERT_EQ(back.size(), all.size());
  for (std::size_t i = 0; i < all.size(); ++i)
    EXPECT_EQ(back[i].kind, all[i].kind) << check::to_string(all[i].kind);
}

// --------------------------------------------------- unit: happens-before

TEST(Checker, RemoteWriteThenUnsyncedReadRaces) {
  Checker c;
  c.bind(2);
  c.on_store(0, 1, 64, 8, "w.cpp", 10);
  c.on_plain_read(1, 1, 64, 8, "r.cpp", 20);
  ASSERT_EQ(c.violations().size(), 1u);
  const Violation& v = c.violations()[0];
  EXPECT_EQ(v.kind, Kind::WriteReadRace);
  EXPECT_EQ(v.pe, 1);
  EXPECT_EQ(v.other_pe, 0);
  EXPECT_EQ(v.offset, 64u);
  EXPECT_EQ(v.bytes, 8u);
  EXPECT_EQ(v.callsite, "r.cpp:20");
}

TEST(Checker, ReadAfterCollectiveRoundIsClean) {
  Checker c;
  c.bind(2);
  c.on_store(0, 1, 0, 16, "w.cpp", 1);
  c.on_collective_arrive(0);
  c.on_collective_arrive(1);  // round completes: writes wiped, clocks join
  c.on_plain_read(1, 1, 0, 16, "r.cpp", 2);
  EXPECT_TRUE(c.violations().empty()) << render_text(c.violations());
  EXPECT_EQ(c.superstep_of(0), 1u);
  EXPECT_EQ(c.superstep_of(1), 1u);
}

TEST(Checker, AcquireReadSynchronizesWithTheWriter) {
  Checker c;
  c.bind(2);
  c.on_store(0, 1, 0, 8, "w.cpp", 1);
  c.on_acquire_read(1, 0, 8);  // wait_until observed the published value
  c.on_plain_read(1, 1, 0, 8, "r.cpp", 2);
  EXPECT_TRUE(c.violations().empty()) << render_text(c.violations());
}

TEST(Checker, RaceReportsDedupPerWriterTick) {
  Checker c;
  c.bind(2);
  c.on_store(0, 1, 0, 8, "w.cpp", 1);
  c.on_plain_read(1, 1, 0, 8, "r.cpp", 2);
  c.on_plain_read(1, 1, 0, 8, "r.cpp", 3);  // same unjoined write: no re-flag
  EXPECT_EQ(c.violations().size(), 1u) << render_text(c.violations());
}

TEST(Checker, OverlappingWritesAttributeTheLatestWriter) {
  Checker c;
  c.bind(3);
  c.on_store(0, 2, 0, 16, "a.cpp", 1);   // [0,16) by PE0
  c.on_store(1, 2, 4, 4, "b.cpp", 2);    // [4,8) re-written by PE1
  c.on_plain_read(2, 2, 4, 4, "r.cpp", 3);
  ASSERT_EQ(c.violations().size(), 1u);
  EXPECT_EQ(c.violations()[0].other_pe, 1);  // trimmed interval: PE1 owns it
  c.on_plain_read(2, 2, 0, 4, "r.cpp", 4);
  ASSERT_EQ(c.violations().size(), 2u);
  EXPECT_EQ(c.violations()[1].other_pe, 0);  // the surviving PE0 piece
  // The second read merged PE0's clock, so the other PE0 fragment [8,16)
  // is now ordered before any further read.
  c.on_plain_read(2, 2, 8, 8, "r.cpp", 5);
  EXPECT_EQ(c.violations().size(), 2u) << render_text(c.violations());
}

TEST(Checker, StagedPutReadBeforeQuietFlags) {
  Checker c;
  c.bind(2);
  c.on_nbi_staged(0, 1, 128, 8, "put.cpp", 7);
  c.on_plain_read(1, 1, 128, 8, "r.cpp", 9);
  ASSERT_EQ(c.violations().size(), 1u);
  const Violation& v = c.violations()[0];
  EXPECT_EQ(v.kind, Kind::ReadBeforeQuiet);
  EXPECT_EQ(v.pe, 1);
  EXPECT_EQ(v.other_pe, 0);
  EXPECT_EQ(v.offset, 128u);
}

TEST(Checker, QuietConvertsStagedToOrdinaryWrites) {
  Checker c;
  c.bind(2);
  c.on_nbi_staged(0, 1, 0, 8, "put.cpp", 1);
  c.on_quiet_begin(0, 1);
  c.on_nbi_applied(0, 0);
  c.on_quiet_end(0);
  // Visible now, but still unsynchronized within the superstep.
  c.on_plain_read(1, 1, 0, 8, "r.cpp", 2);
  ASSERT_EQ(c.violations().size(), 1u);
  EXPECT_EQ(c.violations()[0].kind, Kind::WriteReadRace);
}

TEST(Checker, UnquiescedPutAtCollectiveFlags) {
  Checker c;
  c.bind(2);
  c.on_nbi_staged(0, 1, 32, 16, "put.cpp", 4);
  c.on_collective_arrive(0);
  ASSERT_EQ(c.violations().size(), 1u);
  const Violation& v = c.violations()[0];
  EXPECT_EQ(v.kind, Kind::UnquiescedAtBarrier);
  EXPECT_EQ(v.pe, 0);
  EXPECT_EQ(v.offset, 32u);
  EXPECT_EQ(v.bytes, 16u);
}

TEST(Checker, QuietStreamFlagsReorderAndDuplicate) {
  Checker c;
  c.bind(2);
  for (int i = 0; i < 3; ++i)
    c.on_nbi_staged(0, 1, static_cast<std::uint64_t>(8 * i), 8, "put.cpp",
                    static_cast<unsigned>(i + 1));
  c.on_quiet_begin(0, 3);
  c.on_nbi_applied(0, 0);
  c.on_nbi_applied(0, 2);
  c.on_nbi_applied(0, 1);  // behind the high-water mark: reordered
  c.on_nbi_applied(0, 1);  // and again: duplicated
  c.on_quiet_end(0);
  ASSERT_EQ(c.violations().size(), 2u) << render_text(c.violations());
  EXPECT_EQ(c.violations()[0].kind, Kind::NbiReordered);
  EXPECT_NE(c.violations()[0].detail.find("applied after put #2"),
            std::string::npos);
  EXPECT_EQ(c.violations()[0].offset, 8u);  // staged put #1's range
  EXPECT_EQ(c.violations()[1].kind, Kind::NbiDuplicated);
  EXPECT_NE(c.violations()[1].detail.find("more than once"),
            std::string::npos);
}

TEST(Checker, QuietSuspendFlagsInterruption) {
  Checker c;
  c.bind(2);
  c.on_quiet_begin(0, 4);
  c.on_quiet_suspend(0, 2, 2);
  ASSERT_EQ(c.violations().size(), 1u);
  EXPECT_EQ(c.violations()[0].kind, Kind::QuietInterrupted);
  EXPECT_NE(c.violations()[0].detail.find("2 still invisible"),
            std::string::npos);
}

TEST(Checker, MisuseIsRecordedVerbatim) {
  Checker c;
  c.bind(1);
  c.on_misuse(0, "nested drain_begin");
  ASSERT_EQ(c.violations().size(), 1u);
  EXPECT_EQ(c.violations()[0].kind, Kind::ApiMisuse);
  EXPECT_EQ(c.violations()[0].detail, "nested drain_begin");
}

TEST(Checker, DeadPeLeavesTheCollectiveRound) {
  Checker c;
  c.bind(2);
  c.on_pe_dead(1);
  c.on_collective_arrive(0);  // completes alone: PE1 no longer counted
  EXPECT_EQ(c.superstep_of(0), 1u);
  EXPECT_TRUE(c.violations().empty());
}

TEST(Checker, ReportCapDropsExcessViolations) {
  Checker c;
  c.bind(1);
  const std::size_t total = Checker::kMaxViolations + 100;
  for (std::size_t i = 0; i < total; ++i) c.on_misuse(0, "flood");
  EXPECT_EQ(c.violations().size(), Checker::kMaxViolations);
  EXPECT_EQ(c.dropped(), 100u);
}

TEST(Checker, BindPreservesViolations) {
  Checker c;
  EXPECT_FALSE(c.bound());
  c.bind(2);
  c.on_misuse(0, "first world");
  c.bind(4);  // union-across-worlds contract
  EXPECT_TRUE(c.bound());
  EXPECT_EQ(c.violations().size(), 1u);
  EXPECT_EQ(c.superstep_of(3), 0u);
}

// ------------------------------------------------------- unit: rendering

std::vector<Violation> sample_violations() {
  Violation a;
  a.kind = Kind::WriteReadRace;
  a.pe = 1;
  a.other_pe = 0;
  a.superstep = 3;
  a.offset = 64;
  a.bytes = 8;
  a.callsite = "app.cpp:42";
  a.detail = "pe 0 wrote heap[64 +8) this superstep; no sync before the read";
  Violation b;
  b.kind = Kind::ApiMisuse;
  b.pe = 2;
  b.superstep = 1;
  b.detail = "push after done";
  return {a, b};
}

TEST(CheckReport, TextNamesKindPeerAndCallsite) {
  const std::string text = render_text(sample_violations(), 1);
  EXPECT_NE(text.find("[write_read_race] pe 1 (peer 0)"), std::string::npos)
      << text;
  EXPECT_NE(text.find("app.cpp:42"), std::string::npos);
  EXPECT_NE(text.find("[api_misuse] pe 2"), std::string::npos);
  EXPECT_EQ(render_text({}, 0), "no BSP conformance violations\n");
}

TEST(CheckReport, JsonIsByteStable) {
  const auto v = sample_violations();
  std::ostringstream first, second;
  check::write_json(first, v, 2);
  check::write_json(second, v, 2);
  EXPECT_EQ(first.str(), second.str());
  EXPECT_NE(first.str().find("\"count\": 2"), std::string::npos)
      << first.str();
  EXPECT_NE(first.str().find("\"dropped\": 2"), std::string::npos);
  EXPECT_NE(first.str().find("\"write_read_race\""), std::string::npos);
}

TEST(CheckReport, CheckCsvRoundTrips) {
  const auto v = sample_violations();
  prof::io::Sink s;
  prof::io::write_csv(s, v, {.dropped = 5});
  std::vector<Violation> back;
  prof::io::FileMeta meta;
  prof::io::read_into(s.str(), back, &meta);
  EXPECT_EQ(meta.dropped, 5u);
  ASSERT_EQ(back.size(), v.size());
  for (std::size_t i = 0; i < v.size(); ++i) {
    EXPECT_EQ(back[i].kind, v[i].kind) << i;
    EXPECT_EQ(back[i].pe, v[i].pe) << i;
    EXPECT_EQ(back[i].other_pe, v[i].other_pe) << i;
    EXPECT_EQ(back[i].superstep, v[i].superstep) << i;
    EXPECT_EQ(back[i].offset, v[i].offset) << i;
    EXPECT_EQ(back[i].bytes, v[i].bytes) << i;
    EXPECT_EQ(back[i].callsite, v[i].callsite) << i;
    EXPECT_EQ(back[i].detail, v[i].detail) << i;
  }
}

TEST(CheckReport, ParseRejectsUnknownKind) {
  std::vector<Violation> out;
  EXPECT_THROW(
      prof::io::read_into("bogus_kind, 0, -1, 0, 0, 0, , x\n", out),
      prof::io::TraceParseError);
}

// ----------------------------------------------------------- env parsing

struct EnvVar {
  explicit EnvVar(const char* name, const std::string& value) : name_(name) {
    ::setenv(name, value.c_str(), 1);
  }
  ~EnvVar() { ::unsetenv(name_); }
  const char* name_;
};

TEST(CheckConfig, EnvToggleParsesStrictly) {
  {
    EnvVar on("ACTORPROF_CHECK", "1");
    EXPECT_TRUE(prof::Config::from_env().check);
  }
  {
    EnvVar off("ACTORPROF_CHECK", "0");
    EXPECT_FALSE(prof::Config::from_env().check);
  }
  {
    EnvVar bad("ACTORPROF_CHECK", "yes");
    EXPECT_THROW((void)prof::Config::from_env(), std::invalid_argument);
  }
  EXPECT_FALSE(prof::Config::from_env().check);
}

// ------------------------------------------- live world: seeded violations

TEST(CheckWorld, PutThenUnsyncedLocalReadFlagsRace) {
  prof::Profiler prof(check_config());
  shmem::run(cfg_of(2, 2), [] {
    shmem::SymmArray<std::int64_t> arr(2);
    shmem::barrier_all();
    const int me = shmem::my_pe();
    if (me == 1) {
      // The last barrier arriver completes the round and keeps running,
      // so this write lands before PE0 is rescheduled.
      std::int64_t v = 7;
      shmem::put(&arr[0], &v, sizeof v, 0);
    } else {
      shmem::annotate_local_read(&arr[0], sizeof(std::int64_t));
    }
    shmem::barrier_all();
  });
  ASSERT_EQ(prof.bsp_violations().size(), 1u)
      << render_text(prof.bsp_violations());
  const Violation& v = prof.bsp_violations()[0];
  EXPECT_EQ(v.kind, Kind::WriteReadRace);
  EXPECT_EQ(v.pe, 0);
  EXPECT_EQ(v.other_pe, 1);
  EXPECT_EQ(v.bytes, sizeof(std::int64_t));
  EXPECT_NE(v.callsite.find("check_test.cpp"), std::string::npos)
      << v.callsite;
}

TEST(CheckWorld, StagedNbiReadBeforeQuietFlags) {
  prof::Profiler prof(check_config());
  shmem::run(cfg_of(2, 2), [] {
    shmem::SymmArray<std::int64_t> arr(2);
    shmem::barrier_all();
    const int me = shmem::my_pe();
    if (me == 1) {
      std::int64_t v = 9;
      shmem::putmem_nbi(&arr[0], &v, sizeof v, 0);
      rt::yield();  // let PE0 read while the put is still staged
      shmem::quiet();
    } else {
      shmem::annotate_local_read(&arr[0], sizeof(std::int64_t));
    }
    shmem::barrier_all();
  });
  ASSERT_EQ(prof.bsp_violations().size(), 1u)
      << render_text(prof.bsp_violations());
  const Violation& v = prof.bsp_violations()[0];
  EXPECT_EQ(v.kind, Kind::ReadBeforeQuiet);
  EXPECT_EQ(v.pe, 0);
  EXPECT_EQ(v.other_pe, 1);
}

TEST(CheckWorld, UnquiescedPutAtSyncAllFlags) {
  prof::Profiler prof(check_config());
  shmem::run(cfg_of(2, 2), [] {
    shmem::SymmArray<std::int64_t> arr(2);
    shmem::barrier_all();
    std::int64_t v = 11;  // must outlive quiet(): nbi sources stay live
    if (shmem::my_pe() == 0) {
      shmem::putmem_nbi(&arr[0], &v, sizeof v, 1);
    }
    shmem::sync_all();  // sync only — PE0's staged put is still invisible
    shmem::quiet();
    shmem::barrier_all();
  });
  ASSERT_EQ(prof.bsp_violations().size(), 1u)
      << render_text(prof.bsp_violations());
  const Violation& v = prof.bsp_violations()[0];
  EXPECT_EQ(v.kind, Kind::UnquiescedAtBarrier);
  EXPECT_EQ(v.pe, 0);
  EXPECT_GT(v.superstep, 0u);  // attributed after the opening barrier
}

TEST(CheckWorld, SynchronizedProgramIsClean) {
  prof::Profiler prof(check_config());
  shmem::run(cfg_of(4, 2), [] {
    const int me = shmem::my_pe();
    const int n = shmem::n_pes();
    shmem::SymmArray<std::int64_t> arr(static_cast<std::size_t>(n));
    shmem::barrier_all();
    std::int64_t v = me;
    for (int dst = 0; dst < n; ++dst)
      shmem::putmem_nbi(&arr[static_cast<std::size_t>(me)], &v, sizeof v,
                        dst);
    shmem::quiet();
    shmem::barrier_all();  // publishes: reads below are a new superstep
    for (int src = 0; src < n; ++src) {
      std::int64_t got = -1;
      shmem::get(&got, &arr[static_cast<std::size_t>(src)], sizeof got, me);
      EXPECT_EQ(got, src);
    }
    shmem::barrier_all();
  });
  expect_clean(prof);
}

// --------------------------------------------- live world: example kernels

graph::RmatParams graph_params(int scale, std::uint64_t seed = 42) {
  graph::RmatParams p;
  p.scale = scale;
  p.edge_factor = 8;
  p.seed = seed;
  return p;
}

TEST(CheckApps, TriangleIsViolationFree) {
  const auto edges = graph::rmat_edges(graph_params(7, 5));
  const auto L = graph::Csr::from_edges(graph::Vertex{1} << 7, edges, true);
  prof::Profiler prof(check_config());
  shmem::run(cfg_of(4, 2), [&L] {
    graph::CyclicDistribution dist(shmem::n_pes());
    (void)apps::count_triangles_actor(L, dist);
  });
  expect_clean(prof);
}

TEST(CheckApps, HistogramIsViolationFree) {
  prof::Profiler prof(check_config());
  shmem::run(cfg_of(4, 2), [] { (void)apps::histogram_actor(64, 500); });
  expect_clean(prof);
}

TEST(CheckApps, PageRankIsViolationFree) {
  const auto edges = graph::rmat_edges(graph_params(7, 11));
  const auto adj = graph::Csr::from_edges(graph::Vertex{1} << 7, edges, false);
  prof::Profiler prof(check_config());
  shmem::run(cfg_of(4, 2), [&adj] { (void)apps::pagerank_actor(adj); });
  expect_clean(prof);
}

TEST(CheckApps, IndexGatherIsViolationFree) {
  prof::Profiler prof(check_config());
  shmem::run(cfg_of(4, 2), [] { (void)apps::index_gather_actor(64, 200, 7); });
  expect_clean(prof);
}

TEST(CheckApps, RandPermIsViolationFree) {
  prof::Profiler prof(check_config());
  shmem::run(cfg_of(4, 2),
             [] { (void)apps::random_permutation_actor(64, 77); });
  expect_clean(prof);
}

TEST(CheckApps, ToposortIsViolationFree) {
  const auto m = apps::make_morally_triangular(96, 2.5, 3);
  prof::Profiler prof(check_config());
  shmem::run(cfg_of(4, 2), [&m] { (void)apps::toposort_actor(m); });
  expect_clean(prof);
}

TEST(CheckApps, JaccardIsViolationFree) {
  const auto edges = graph::rmat_edges(graph_params(7, 13));
  const auto L = graph::Csr::from_edges(graph::Vertex{1} << 7, edges, true);
  prof::Profiler prof(check_config());
  shmem::run(cfg_of(4, 2), [&L] {
    graph::CyclicDistribution dist(shmem::n_pes());
    (void)apps::jaccard_actor(L, dist);
  });
  expect_clean(prof);
}

// ---------------------------------------------------- `actorprof check` CLI

#ifdef ACTORPROF_VIZ_BIN
int run_cli(const std::string& args, const fs::path& out) {
  const std::string cmd = std::string(ACTORPROF_VIZ_BIN) + " " + args +
                          " > " + out.string() + " 2>&1";
  return std::system(cmd.c_str());
}

std::string slurp(const fs::path& p) {
  std::ifstream is(p);
  std::stringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

int exit_code(int system_rc) {
  return WIFEXITED(system_rc) ? WEXITSTATUS(system_rc) : -1;
}

TEST(CheckCli, CleanTraceExitsZeroViolatingExitsFour) {
  const ap::testutil::TestTmpDir tmp;
  const fs::path clean_dir = tmp / "check_clean";
  const fs::path bad_dir = tmp / "check_bad";
  fs::remove_all(clean_dir);
  fs::remove_all(bad_dir);

  {
    prof::Config cfg = check_config();
    cfg.trace_dir = clean_dir;
    prof::Profiler prof(cfg);
    shmem::run(cfg_of(2, 2), [] { shmem::barrier_all(); });
    prof.write_traces();
  }
  {
    prof::Config cfg = check_config();
    cfg.trace_dir = bad_dir;
    prof::Profiler prof(cfg);
    shmem::run(cfg_of(2, 2), [] {
      shmem::SymmArray<std::int64_t> arr(2);
      shmem::barrier_all();
      if (shmem::my_pe() == 1) {
        std::int64_t v = 7;
        shmem::put(&arr[0], &v, sizeof v, 0);
      } else {
        shmem::annotate_local_read(&arr[0], sizeof(std::int64_t));
      }
      shmem::barrier_all();
    });
    prof.write_traces();
  }

  const fs::path out = tmp / "check_cli_out.txt";
  EXPECT_EQ(exit_code(run_cli("check " + clean_dir.string(), out)), 0)
      << slurp(out);
  EXPECT_NE(slurp(out).find("no BSP conformance violations"),
            std::string::npos)
      << slurp(out);

  EXPECT_EQ(exit_code(run_cli("check " + bad_dir.string(), out)), 4)
      << slurp(out);
  EXPECT_NE(slurp(out).find("write_read_race"), std::string::npos)
      << slurp(out);

  EXPECT_EQ(exit_code(run_cli("check --json " + bad_dir.string(), out)), 4);
  const std::string json = slurp(out);
  EXPECT_NE(json.find("\"count\": 1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"kind\": \"write_read_race\""), std::string::npos)
      << json;

  // A directory that was never checked is an error, not a clean pass.
  const fs::path empty_dir = tmp / "check_none";
  fs::create_directories(empty_dir);
  EXPECT_EQ(exit_code(run_cli("check " + empty_dir.string(), out)), 1);
  EXPECT_NE(slurp(out).find("ACTORPROF_CHECK"), std::string::npos)
      << slurp(out);
}
#endif  // ACTORPROF_VIZ_BIN

// ---------------------------------------------- trace round trip (loader)

TEST(CheckTrace, LoadDistinguishesCleanFromUnchecked) {
  const ap::testutil::TestTmpDir tmp;
  const fs::path dir = tmp / "check_load";
  fs::remove_all(dir);
  prof::Config cfg = check_config();
  cfg.trace_dir = dir;
  {
    prof::Profiler prof(cfg);
    shmem::run(cfg_of(2, 2), [] { shmem::barrier_all(); });
    prof.write_traces();
  }
  const auto t = prof::io::load_trace_dir(dir, 2);
  EXPECT_TRUE(t.check_recorded);
  EXPECT_TRUE(t.check.empty());
  EXPECT_EQ(t.check_dropped, 0u);

  const fs::path plain = tmp / "check_load_off";
  fs::remove_all(plain);
  prof::Config off;
  off.overall = true;
  off.trace_dir = plain;
  {
    prof::Profiler prof(off);
    shmem::run(cfg_of(2, 2), [] { shmem::barrier_all(); });
    prof.write_traces();
  }
  const auto u = prof::io::load_trace_dir(plain, 2);
  EXPECT_FALSE(u.check_recorded);
}

}  // namespace
