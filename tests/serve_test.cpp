// The `actorprof serve` trace service (docs/OBSERVABILITY.md, "Live
// service"): endpoint bodies must be byte-identical to the library writers
// the CLI uses, a partially-written trace dir must serve the tolerant
// analysis mid-run, refresh() must ingest newly-flushed shards
// incrementally, and the HTTP loop must answer real sockets.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/analysis.hpp"
#include "apps/triangle.hpp"
#include "check/checker.hpp"
#include "core/profiler.hpp"
#include "core/trace_binary.hpp"
#include "core/trace_io.hpp"
#include "graph/distribution.hpp"
#include "graph/rmat.hpp"
#include "serve/http.hpp"
#include "serve/publisher.hpp"
#include "serve/registry.hpp"
#include "serve/service.hpp"
#include "shmem/shmem.hpp"
#include "viz/heatmap_json.hpp"
#include "test_tmpdir.hpp"

namespace {

namespace fs = std::filesystem;
namespace io = ap::prof::io;
using ap::serve::Response;
using ap::serve::ServiceRegistry;
using ap::serve::TraceService;

constexpr int kPes = 4;

/// One profiled triangle run written in the binary trace format (with the
/// conformance checker on, so /check has a report to serve).
const fs::path& served_dir() {
  // Unique per process: ctest -j runs each TEST as its own process, and
  // several of them rebuild this fixture — a shared path would race.
  static const ap::testutil::TestTmpDir fixture_tmp("serve_trace");
  static const fs::path dir = [] {
    const fs::path d = fixture_tmp / "trace";
    fs::remove_all(d);
    ap::graph::RmatParams gp;
    gp.scale = 7;
    gp.edge_factor = 8;
    gp.permute_vertices = false;
    const auto edges = ap::graph::rmat_edges(gp);
    const auto lower = ap::graph::Csr::from_edges(
        ap::graph::Vertex{1} << gp.scale, edges, true);

    ap::prof::Config pc = ap::prof::Config::all_enabled();
    pc.check = true;
    pc.trace_dir = d;
    pc.trace_format = ap::prof::TraceFormat::binary;
    ap::prof::Profiler profiler(pc);
    ap::rt::LaunchConfig lc;
    lc.num_pes = kPes;
    lc.pes_per_node = kPes;
    ap::shmem::run(lc, [&] {
      ap::graph::RangeDistribution dist(ap::shmem::n_pes(), lower);
      ap::apps::count_triangles_actor(lower, dist, &profiler);
    });
    profiler.write_traces();
    return d;
  }();
  return dir;
}

io::TraceDir load_tolerant(const fs::path& dir, int num_pes) {
  io::LoadOptions lo;
  lo.tolerate_partial = true;
  return io::load_trace_dir(dir, num_pes, lo);
}

TEST(Serve, HealthzReportsReadyTrace) {
  TraceService svc(served_dir());
  const Response r = svc.handle("GET", "/healthz");
  EXPECT_EQ(r.status, 200);
  EXPECT_NE(r.body.find("\"status\":\"ok\""), std::string::npos) << r.body;
  EXPECT_NE(r.body.find("\"num_pes\":4"), std::string::npos) << r.body;
  EXPECT_NE(r.body.find("\"check_recorded\":true"), std::string::npos);
}

TEST(Serve, AnalyzeMatchesLibraryWriterBytes) {
  TraceService svc(served_dir());
  const Response r = svc.handle("GET", "/analyze");
  ASSERT_EQ(r.status, 200);
  const auto t = load_tolerant(served_dir(), kPes);
  std::ostringstream os;
  ap::prof::analysis::write_json(os, ap::prof::analysis::analyze(t));
  EXPECT_EQ(r.body, os.str());
  // The cache answers repeat requests with the same bytes.
  EXPECT_EQ(svc.handle("GET", "/analyze").body, r.body);
}

TEST(Serve, HeatmapAndCheckMatchLibraryWriterBytes) {
  TraceService svc(served_dir());
  const auto t = load_tolerant(served_dir(), kPes);

  const Response h = svc.handle("GET", "/heatmap");
  ASSERT_EQ(h.status, 200);
  std::ostringstream hs;
  ap::viz::write_heatmap_json(hs, t);
  EXPECT_EQ(h.body, hs.str());

  const Response c = svc.handle("GET", "/check");
  ASSERT_EQ(c.status, 200);
  std::ostringstream cs;
  ap::check::write_json(cs, t.check, t.check_dropped);
  EXPECT_EQ(c.body, cs.str());
}

TEST(Serve, DiffAgainstItselfMatchesLibraryWriterBytes) {
  TraceService svc(served_dir());
  const Response r =
      svc.handle("GET", "/diff?base=" + served_dir().string());
  ASSERT_EQ(r.status, 200) << r.body;
  const auto t = load_tolerant(served_dir(), kPes);
  const auto a = ap::prof::analysis::analyze(t);
  const auto d = ap::prof::analysis::diff(a, a, 0.10);
  std::ostringstream os;
  ap::prof::analysis::write_diff_json(os, d);
  EXPECT_EQ(r.body, os.str());
}

TEST(Serve, ErrorsAndMethodHandling) {
  TraceService svc(served_dir());
  EXPECT_EQ(svc.handle("GET", "/nope").status, 404);
  EXPECT_EQ(svc.handle("POST", "/analyze").status, 405);
  EXPECT_EQ(svc.handle("GET", "/diff").status, 400);  // missing base=
  // No metrics.prom in this run: the bare service explains instead of
  // 500ing (the registry layer upgrades /metrics to always-200 below).
  EXPECT_EQ(svc.handle("GET", "/metrics").status, 404);
}

// ---------------------------------------------------------------- registry

TEST(Serve, RegistryDefaultRunBytesMatchBareService) {
  TraceService svc(served_dir());
  ServiceRegistry reg(served_dir(), {});
  // URLs without ?run= must stay byte-identical to the pre-registry
  // service — existing dashboards and scripts keep working unchanged.
  for (const char* target : {"/analyze", "/heatmap", "/check", "/healthz"}) {
    const Response a = reg.handle("GET", target, {});
    const Response b = svc.handle("GET", target);
    EXPECT_EQ(a.status, b.status) << target;
    EXPECT_EQ(a.body, b.body) << target;
  }
  // ?run=default and ?run=<unknown> route explicitly.
  EXPECT_EQ(reg.handle("GET", "/analyze?run=default", {}).body,
            svc.handle("GET", "/analyze").body);
  EXPECT_EQ(reg.handle("GET", "/analyze?run=nope", {}).status, 404);
  EXPECT_EQ(reg.handle("GET", "/analyze?run=bad%2Fid", {}).status, 400);
}

TEST(Serve, RegistryMetricsAlwaysAnswersWithSelfMetrics) {
  ServiceRegistry reg(served_dir(), {});
  reg.handle("GET", "/analyze", {});
  reg.handle("GET", "/analyze", {});  // second hit comes from the cache
  const Response m = reg.handle("GET", "/metrics", {});
  ASSERT_EQ(m.status, 200) << m.body;
  EXPECT_NE(m.body.find("actorprof_serve_requests_total{endpoint=\"/analyze\"} 2"),
            std::string::npos)
      << m.body;
  EXPECT_NE(m.body.find("actorprof_serve_analyze_cache_hits_total 1"),
            std::string::npos)
      << m.body;
  EXPECT_NE(m.body.find("actorprof_serve_analyze_cache_misses_total 1"),
            std::string::npos)
      << m.body;
  EXPECT_NE(m.body.find("actorprof_serve_runs 1"), std::string::npos);
}

/// Frame every file of `dir` as replace segments. The MANIFEST goes first:
/// its num_pes line sizes the run, and per-PE shards are rejected until
/// the PE count is known (the live publisher pushes it first, too).
std::string frame_dir(const fs::path& dir) {
  std::string frame;
  std::vector<std::pair<std::string, std::string>> files;
  for (const auto& e : fs::directory_iterator(dir)) {
    if (!e.is_regular_file()) continue;
    std::ifstream is(e.path(), std::ios::binary);
    std::ostringstream ss;
    ss << is.rdbuf();
    files.emplace_back(e.path().filename().string(), ss.str());
  }
  std::sort(files.begin(), files.end(), [](const auto& a, const auto& b) {
    return (a.first != io::kManifestFile) < (b.first != io::kManifestFile);
  });
  for (const auto& [name, body] : files)
    ap::serve::append_push_segment(frame, name, /*append=*/false, body);
  return frame;
}

TEST(Serve, IngestRoundTripsToFileServedBytes) {
  ServiceRegistry reg(served_dir(), {});
  const Response ok =
      reg.handle("POST", "/ingest?run=push1", frame_dir(served_dir()));
  ASSERT_EQ(ok.status, 200) << ok.body;

  // The pushed run's analysis and heatmap are byte-identical to the
  // file-watched run's — the promise `actorprof tail` + CI diffing rely on.
  for (const char* path : {"/analyze", "/heatmap", "/check"}) {
    const Response file_r = reg.handle("GET", std::string(path), {});
    const Response push_r =
        reg.handle("GET", std::string(path) + "?run=push1", {});
    ASSERT_EQ(push_r.status, 200) << path << ": " << push_r.body;
    EXPECT_EQ(push_r.body, file_r.body) << path;
  }

  // /runs lists both, with sources attributed.
  const Response runs = reg.handle("GET", "/runs", {});
  ASSERT_EQ(runs.status, 200);
  EXPECT_NE(runs.body.find("\"id\":\"default\",\"source\":\"file\""),
            std::string::npos)
      << runs.body;
  EXPECT_NE(runs.body.find("\"id\":\"push1\",\"source\":\"push\""),
            std::string::npos)
      << runs.body;

  // Ingest guards: missing/invalid run ids, and the reserved default run.
  EXPECT_EQ(reg.handle("POST", "/ingest", "x").status, 400);
  EXPECT_EQ(reg.handle("POST", "/ingest?run=default", "x").status, 400);
  EXPECT_EQ(reg.handle("POST", "/ingest?run=bad/id", "x").status, 400);
  EXPECT_EQ(reg.handle("GET", "/ingest?run=push1", {}).status, 405);
}

TEST(Serve, IngestAppendAccumulatesRows) {
  ServiceRegistry reg({});
  // Stream a steps shard in two append halves plus a manifest, the shape
  // the in-process publisher produces mid-run.
  const auto rows = [] {
    std::vector<ap::prof::SuperstepRecord> v;
    for (int i = 0; i < 6; ++i) {
      ap::prof::SuperstepRecord r{};
      r.pe = 0;
      r.epoch = 0;
      r.step = static_cast<std::uint32_t>(i);
      v.push_back(r);
    }
    return v;
  }();
  using Rows = std::vector<ap::prof::SuperstepRecord>;
  const std::string name = io::file_name({io::BinKind::steps, 0}, true);
  std::string frame;
  ap::serve::append_push_segment(frame, io::kManifestFile, /*append=*/false,
                                 "num_pes 1\n");
  ap::serve::append_push_segment(
      frame, name, /*append=*/true,
      io::encode(Rows(rows.begin(), rows.begin() + 3)));
  ASSERT_EQ(reg.handle("POST", "/ingest?run=r", frame).status, 200);
  TraceService* svc = reg.find("r");
  ASSERT_NE(svc, nullptr);
  EXPECT_EQ(svc->trace().steps[0].size(), 3u);

  std::string more;
  ap::serve::append_push_segment(
      more, name, /*append=*/true,
      io::encode(Rows(rows.begin() + 3, rows.end())));
  ASSERT_EQ(reg.handle("POST", "/ingest?run=r", more).status, 200);
  EXPECT_EQ(svc->trace().steps[0].size(), 6u);
  // A replace frame supersedes the appended rows (write_all's final push).
  std::string final_frame;
  ap::serve::append_push_segment(final_frame, name, /*append=*/false,
                                 io::encode(rows));
  ASSERT_EQ(reg.handle("POST", "/ingest?run=r", final_frame).status, 200);
  EXPECT_EQ(svc->trace().steps[0].size(), 6u);
}

// The logical shard is held as runs: an append segment whose first row
// repeats the last row ingested extends that row's run, so the pushed run
// holds the records and runs of loading the concatenated shard.
TEST(Serve, IngestAppendJoinsARunAcrossSegments) {
  using R = ap::prof::LogicalSendRecord;
  using Rows = std::vector<R>;
  Rows rows(3000, R{0, 0, 0, 1, 8});
  rows.push_back(R{0, 0, 0, 2, 8});
  rows.insert(rows.end(), 2000, R{0, 0, 0, 3, 16});
  const auto split = rows.begin() + 4200;  // inside the run of 2,000
  const std::string name = io::file_name({io::BinKind::send, 0}, true);
  std::string frame;
  ap::serve::append_push_segment(frame, io::kManifestFile, /*append=*/false,
                                 "num_pes 1\n");
  ap::serve::append_push_segment(frame, name, /*append=*/true,
                                 io::encode(Rows(rows.begin(), split)));
  ap::serve::append_push_segment(frame, name, /*append=*/true,
                                 io::encode(Rows(split, rows.end())));
  ServiceRegistry reg({});
  ASSERT_EQ(reg.handle("POST", "/ingest?run=r", frame).status, 200);
  TraceService* svc = reg.find("r");
  ASSERT_NE(svc, nullptr);

  ap::prof::LogicalSendLog whole;
  io::read_into(io::encode(rows), whole);
  const ap::prof::LogicalSendLog& pushed = svc->trace().logical[0];
  EXPECT_EQ(pushed.records(), rows);
  EXPECT_EQ(pushed.runs(), whole.runs());
  EXPECT_EQ(pushed.runs().size(), 3u);
}

TEST(Serve, LiveHandleDeliversHelloAndPollDeliversDeltas) {
  ServiceRegistry reg({});
  // Subscribing before the first POST lazily creates the push run.
  const Response hello = reg.handle("GET", "/live?run=r", {});
  ASSERT_EQ(hello.status, 200);
  EXPECT_EQ(hello.content_type, "text/event-stream");
  EXPECT_NE(hello.body.find("event: hello"), std::string::npos);

  ServiceRegistry::LiveCursor cur;
  ASSERT_EQ(reg.live_open("run=r", cur).status, 200);
  std::string out;
  ASSERT_TRUE(reg.live_poll(cur, out));
  EXPECT_EQ(out, "") << "no data yet, no events";

  std::string frame;
  ap::serve::append_push_segment(frame, io::kManifestFile, false,
                                 "num_pes 2\n");
  ap::prof::SuperstepRecord r{};
  r.pe = 1;
  r.epoch = 2;
  r.step = 7;
  ap::serve::append_push_segment(
      frame, io::file_name({io::BinKind::steps, 1}, true), true,
      io::encode(std::vector{r}));
  ap::serve::append_push_segment(frame, "anomalies.txt", true,
                                 "straggler pe=1 t_cycles=5 value=9 "
                                 "fleet_median=3\n");
  ASSERT_EQ(reg.handle("POST", "/ingest?run=r", frame).status, 200);
  out.clear();
  ASSERT_TRUE(reg.live_poll(cur, out));
  EXPECT_NE(out.find("event: superstep"), std::string::npos) << out;
  EXPECT_NE(out.find("\"max_epoch\":2"), std::string::npos) << out;
  EXPECT_NE(out.find("\"max_step\":7"), std::string::npos) << out;
  EXPECT_NE(out.find("event: anomaly"), std::string::npos) << out;
  EXPECT_NE(out.find("straggler pe=1"), std::string::npos) << out;
  // Nothing new on the next poll.
  out.clear();
  ASSERT_TRUE(reg.live_poll(cur, out));
  EXPECT_EQ(out, "");
}

TEST(Serve, RetentionEvictsOldestPushRun) {
  ap::serve::RegistryOptions ro;
  ro.retain_runs = 2;
  ServiceRegistry reg(ro);
  std::ostringstream log;
  reg.set_log(&log);
  const auto push_one = [&](const std::string& id) {
    std::string frame;
    ap::serve::append_push_segment(frame, io::kManifestFile, false,
                                   "num_pes 1\n");
    ASSERT_EQ(reg.handle("POST", "/ingest?run=" + id, frame).status, 200)
        << id;
  };
  push_one("a");
  push_one("b");
  push_one("c");  // evicts the oldest-updated run, a
  EXPECT_EQ(reg.find("a"), nullptr);
  EXPECT_NE(reg.find("b"), nullptr);
  EXPECT_NE(reg.find("c"), nullptr);
  EXPECT_EQ(reg.evictions(), 1u);
  EXPECT_NE(log.str().find("retention evicted run 'a'"), std::string::npos)
      << log.str();
  // The /metrics counter survives the eviction (monotonic).
  const Response m = reg.handle("GET", "/metrics", {});
  EXPECT_NE(m.body.find("actorprof_serve_evictions_total 1"),
            std::string::npos)
      << m.body;
}

// A rewritten shard with the same size (and restored mtime) must still be
// picked up: the file signature includes a content hash of the first/last
// bytes, not just size+mtime.
TEST(Serve, RefreshSeesSameSizeSameMtimeRewrite) {
  const ap::testutil::TestTmpDir tmp;
  const fs::path dir = tmp / "serve_samesize";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string shard = io::file_name({io::BinKind::send, 0}, true);
  const auto write_rows = [&](int dst) {
    std::ofstream os(dir / shard, std::ios::binary | std::ios::trunc);
    const std::string body =
        io::encode(std::vector{ap::prof::LogicalSendRecord{0, 0, 0, dst, 8}});
    os.write(body.data(), static_cast<std::streamsize>(body.size()));
  };
  write_rows(5);
  {
    std::ofstream os(dir / io::kManifestFile);
    os << "num_pes 1\n";
  }
  TraceService svc(dir);
  ASSERT_EQ(svc.trace().logical[0].size(), 1u);
  ASSERT_EQ(svc.trace().logical[0].records()[0].dst_pe, 5);

  const auto size_before = fs::file_size(dir / shard);
  const auto mtime_before = fs::last_write_time(dir / shard);
  write_rows(7);  // same encoded size, different payload
  ASSERT_EQ(fs::file_size(dir / shard), size_before)
      << "test premise: the rewrite must not change the size";
  fs::last_write_time(dir / shard, mtime_before);
  ASSERT_TRUE(svc.refresh())
      << "content signature must catch a same-size same-mtime rewrite";
  EXPECT_EQ(svc.trace().logical[0].records()[0].dst_pe, 7);
}

TEST(Serve, MidRunPartialDirServesTolerantAnalysis) {
  const ap::testutil::TestTmpDir tmp;
  // A dir with only some shards flushed and no MANIFEST yet — what a
  // watcher sees mid-run. With --num-pes the service answers from the
  // tolerant partial load, byte-identical to the CLI on the same dir.
  const fs::path dir = tmp / "serve_partial";
  fs::remove_all(dir);
  fs::create_directories(dir);
  for (int pe = 0; pe < kPes; ++pe)
    fs::copy_file(served_dir() / io::file_name({io::BinKind::steps, pe}, true),
                  dir / io::file_name({io::BinKind::steps, pe}, true));
  // Logical shards of only half the PEs; PAPI/physical/check still missing.
  for (int pe = 0; pe < 2; ++pe)
    fs::copy_file(
        served_dir() / io::file_name({io::BinKind::send, pe}, true),
        dir / io::file_name({io::BinKind::send, pe}, true));

  ap::serve::ServiceOptions opts;
  opts.num_pes = kPes;
  TraceService svc(dir, opts);
  const Response r = svc.handle("GET", "/analyze");
  ASSERT_EQ(r.status, 200) << r.body;
  std::ostringstream os;
  ap::prof::analysis::write_json(
      os, ap::prof::analysis::analyze(load_tolerant(dir, kPes)));
  EXPECT_EQ(r.body, os.str());
}

TEST(Serve, RefreshIngestsShardsIncrementally) {
  const ap::testutil::TestTmpDir tmp;
  const fs::path dir = tmp / "serve_incremental";
  fs::remove_all(dir);
  fs::create_directories(dir);

  TraceService svc(dir);
  // Empty dir: PE count unknown, analysis unavailable.
  EXPECT_EQ(svc.handle("GET", "/analyze").status, 503);
  EXPECT_NE(svc.handle("GET", "/healthz").body.find("\"status\":\"waiting\""),
            std::string::npos);
  EXPECT_FALSE(svc.refresh()) << "nothing changed";

  // The full trace lands (MANIFEST last, as write_all orders it).
  fs::remove_all(dir);
  fs::copy(served_dir(), dir);
  ASSERT_TRUE(svc.refresh());
  const auto v1 = svc.version();
  ASSERT_EQ(svc.handle("GET", "/analyze").status, 200);
  EXPECT_FALSE(svc.refresh()) << "no further change";

  // One shard grows (a PE flushed more rows): only that shard re-ingests.
  const std::string shard = io::file_name({io::BinKind::send, 0}, true);
  auto rows = svc.trace().logical[0].records();
  const auto before = rows.size();
  ASSERT_GT(before, 0u);
  rows.push_back(rows.back());
  {
    std::ofstream os(dir / shard, std::ios::binary | std::ios::trunc);
    const std::string body = io::encode(rows);
    os.write(body.data(), static_cast<std::streamsize>(body.size()));
  }
  ASSERT_TRUE(svc.refresh());
  EXPECT_GT(svc.version(), v1);
  EXPECT_EQ(svc.trace().logical[0].size(), before + 1);
  // Other shards were not disturbed.
  EXPECT_FALSE(svc.trace().logical[1].empty());

  // A shard damaged mid-flush: the prefix serves, an issue is recorded.
  fs::resize_file(dir / shard, fs::file_size(dir / shard) - 3);
  ASSERT_TRUE(svc.refresh());
  bool named = false;
  for (const auto& i : svc.trace().issues)
    if (i.file == shard) named = true;
  EXPECT_TRUE(named);
  EXPECT_EQ(svc.handle("GET", "/analyze").status, 200);
}

// 4-digit shard names: the daemon's scan constructs the expected name for
// every PE index and its incremental path parses the index back out of the
// name ("PE1000..." -> 1000) — neither may rely on directory sort order,
// where PE1000 lands before PE2. A grown PE1000 shard must re-ingest into
// logical[1000], not whatever slot a lexicographic walk would assign.
TEST(Serve, RefreshMapsFourDigitShardsToTheRightPes) {
  const ap::testutil::TestTmpDir tmp;
  const fs::path dir = tmp / "serve_4digit";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const auto write_shard = [&](int pe, std::vector<ap::prof::LogicalSendRecord> rows) {
    io::Sink s;
    io::write_csv(s, rows);
    std::ofstream(dir / io::file_name({io::BinKind::send, pe})) << s.str();
  };
  write_shard(2, {{0, 2, 0, 3, 8}});
  write_shard(10, {{0, 10, 0, 4, 8}});
  write_shard(1000, {{0, 1000, 0, 5, 8}});
  {
    std::ofstream os(dir / io::kManifestFile);
    os << "num_pes 1005\n";
  }

  TraceService svc(dir);
  ASSERT_EQ(svc.trace().num_pes, 1005);
  ASSERT_EQ(svc.trace().logical.size(), 1005u);
  ASSERT_EQ(svc.trace().logical[1000].size(), 1u);
  EXPECT_EQ(svc.trace().logical[1000].records()[0].dst_pe, 5);
  ASSERT_EQ(svc.trace().logical[10].size(), 1u);
  EXPECT_EQ(svc.trace().logical[10].records()[0].dst_pe, 4);

  // PE1000's shard grows: the incremental path must map the name back to
  // PE index 1000 (std::atoi past the "PE" prefix, all four digits).
  write_shard(1000, {{0, 1000, 0, 5, 8}, {0, 1000, 0, 7, 8}});
  ASSERT_TRUE(svc.refresh());
  ASSERT_EQ(svc.trace().logical[1000].size(), 2u);
  EXPECT_EQ(svc.trace().logical[1000].records()[1].dst_pe, 7);
  // Neighbors in lexicographic order were not disturbed.
  EXPECT_EQ(svc.trace().logical[2].size(), 1u);
  EXPECT_EQ(svc.trace().logical[10].size(), 1u);
  EXPECT_TRUE(svc.trace().logical[100].empty());

  // The heatmap endpoint buckets the 1005-PE matrix sparsely and answers.
  const Response h = svc.handle("GET", "/heatmap");
  ASSERT_EQ(h.status, 200);
  EXPECT_NE(h.body.find("\"bucketed\":true"), std::string::npos);
  EXPECT_NE(h.body.find("\"num_pes\":1005"), std::string::npos);
}

// ---------------------------------------------------------------- sockets

std::string http_get(int port, const std::string& target) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return {};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
    ::close(fd);
    return {};
  }
  const std::string req =
      "GET " + target + " HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n";
  (void)::send(fd, req.data(), req.size(), 0);
  std::string reply;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof buf, 0)) > 0)
    reply.append(buf, static_cast<std::size_t>(n));
  ::close(fd);
  return reply;
}

TEST(Serve, HttpLoopAnswersRealSockets) {
  TraceService svc(served_dir());
  const std::string expect_analyze = svc.handle("GET", "/analyze").body;
  ServiceRegistry reg(served_dir(), {});

  std::atomic<int> port{0};
  ap::serve::ServerOptions opts;
  opts.port = 0;  // ephemeral
  opts.max_requests = 3;
  opts.poll_interval_ms = 20;
  opts.bound_port = &port;
  std::ostringstream out, err;
  int rc = -1;
  std::thread server([&] { rc = ap::serve::run_server(reg, opts, out, err); });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (port.load() == 0 && std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_GT(port.load(), 0) << err.str();

  const std::string health = http_get(port.load(), "/healthz");
  EXPECT_NE(health.find("HTTP/1.1 200 OK"), std::string::npos) << health;
  EXPECT_NE(health.find("\"status\":\"ok\""), std::string::npos);

  const std::string analyze = http_get(port.load(), "/analyze");
  const std::size_t body_at = analyze.find("\r\n\r\n");
  ASSERT_NE(body_at, std::string::npos);
  EXPECT_EQ(analyze.substr(body_at + 4), expect_analyze)
      << "socket body must match the in-process handler byte for byte";

  const std::string missing = http_get(port.load(), "/nope");
  EXPECT_NE(missing.find("HTTP/1.1 404 Not Found"), std::string::npos);

  server.join();
  EXPECT_EQ(rc, 0) << err.str();
  EXPECT_NE(out.str().find("listening on http://127.0.0.1:"),
            std::string::npos);
}

}  // namespace
